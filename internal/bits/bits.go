// Package bits provides the bit-granular writer used by the entropy-coding
// stages of the codec suite (huffman, brotli).
//
// The Writer packs bits LSB-first into a growing byte slice and reuses its
// destination buffer. The decoders read the same layout with inlined
// loops; the tests read it back with a reference Reader.
package bits

import (
	"encoding/binary"
	"fmt"
)

// Writer accumulates bits LSB-first and flushes them into a byte slice.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	acc  uint64 // bit accumulator, low bits are oldest
	nacc uint   // number of valid bits in acc
}

// Reset discards buffered state and re-targets dst.
func (w *Writer) Reset(dst []byte) {
	w.buf = dst
	w.acc = 0
	w.nacc = 0
}

// WriteBits appends the low n bits of v (0 <= n <= 57).
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 57 {
		panic(fmt.Sprintf("bits: WriteBits n=%d out of range", n))
	}
	w.acc |= (v & (1<<n - 1)) << w.nacc
	w.nacc += n
	// Flush words, not bytes: the byte sequence is identical (low byte
	// first either way), but one 4-byte append replaces four loop trips.
	for w.nacc >= 32 {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(w.acc))
		w.acc >>= 32
		w.nacc -= 32
	}
	for w.nacc >= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
		w.nacc -= 8
	}
}

// Align pads with zero bits to the next byte boundary.
func (w *Writer) Align() {
	if w.nacc%8 != 0 {
		w.WriteBits(0, 8-w.nacc%8)
	}
}

// Bytes flushes any partial byte (zero-padded) and returns the buffer.
// The Writer remains usable; subsequent writes start bit-aligned.
func (w *Writer) Bytes() []byte {
	w.Align()
	return w.buf
}
