package bits

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundTripSimple(t *testing.T) {
	w := &Writer{}
	w.WriteBits(0b101, 3)
	w.WriteBits(0xFF, 8)
	w.WriteBits(0x1234, 16)
	w.WriteBits(1, 1)
	out := w.Bytes()

	r := NewReader(out)
	if v, _ := r.ReadBits(3); v != 0b101 {
		t.Fatalf("got %b want 101", v)
	}
	if v, _ := r.ReadBits(8); v != 0xFF {
		t.Fatalf("got %x want ff", v)
	}
	if v, _ := r.ReadBits(16); v != 0x1234 {
		t.Fatalf("got %x want 1234", v)
	}
	if v, _ := r.ReadBit(); v != 1 {
		t.Fatalf("got %d want 1", v)
	}
}

func TestRoundTripRandomWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type item struct {
		v uint64
		n uint
	}
	var items []item
	w := &Writer{}
	for i := 0; i < 10000; i++ {
		n := uint(rng.Intn(57) + 1)
		v := rng.Uint64() & (1<<n - 1)
		items = append(items, item{v, n})
		w.WriteBits(v, n)
	}
	r := NewReader(w.Bytes())
	for i, it := range items {
		v, err := r.ReadBits(it.n)
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if v != it.v {
			t.Fatalf("item %d: got %x want %x (n=%d)", i, v, it.v, it.n)
		}
	}
}

func TestReadPastEnd(t *testing.T) {
	r := NewReader([]byte{0xAB})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(1); err != ErrUnexpectedEOF {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
}

func TestAlign(t *testing.T) {
	w := &Writer{}
	w.WriteBits(1, 1)
	w.Align()
	w.WriteBits(0xCD, 8)
	out := w.Bytes()
	if len(out) != 2 {
		t.Fatalf("len=%d want 2", len(out))
	}
	r := NewReader(out)
	if _, err := r.ReadBits(1); err != nil {
		t.Fatal(err)
	}
	r.Align()
	if v, _ := r.ReadBits(8); v != 0xCD {
		t.Fatalf("got %x want cd", v)
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	w := &Writer{}
	w.WriteBits(0x2A, 8)
	r := NewReader(w.Bytes())
	if p := r.Peek(8); p != 0x2A {
		t.Fatalf("peek got %x", p)
	}
	if v, _ := r.ReadBits(8); v != 0x2A {
		t.Fatalf("read got %x", v)
	}
}

func TestHave(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if got := r.Have(); got != 24 {
		t.Fatalf("Have=%d want 24", got)
	}
	r.ReadBits(5)
	if got := r.Have(); got != 19 {
		t.Fatalf("Have=%d want 19", got)
	}
}

func TestQuickBytesRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		w := &Writer{}
		for _, b := range data {
			w.WriteBits(uint64(b), 8)
		}
		r := NewReader(w.Bytes())
		for _, b := range data {
			v, err := r.ReadBits(8)
			if err != nil || byte(v) != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriterReset(t *testing.T) {
	w := &Writer{}
	w.WriteBits(0xFFFF, 16)
	w.Reset(nil)
	w.WriteBits(0x7, 3)
	out := w.Bytes()
	if len(out) != 1 || out[0] != 0x07 {
		t.Fatalf("got %v", out)
	}
}

func BenchmarkWriteBits(b *testing.B) {
	w := &Writer{buf: make([]byte, 0, 1<<20)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Reset(w.buf[:0])
		for j := 0; j < 100000; j++ {
			w.WriteBits(uint64(j), 13)
		}
	}
}

// --- Reader: the reference decoder the Writer tests read back with ---

// ErrUnexpectedEOF is returned when a Reader runs out of input mid-symbol.
var ErrUnexpectedEOF = errors.New("bits: unexpected end of bitstream")

// Reader consumes bits LSB-first from a byte slice.
type Reader struct {
	src  []byte
	pos  int    // next byte to load
	acc  uint64 // bit accumulator
	nacc uint   // valid bits in acc
}

// NewReader returns a Reader over src. The Reader borrows src.
func NewReader(src []byte) *Reader {
	return &Reader{src: src}
}

// Reset re-targets the reader at src.
func (r *Reader) Reset(src []byte) {
	r.src = src
	r.pos = 0
	r.acc = 0
	r.nacc = 0
}

func (r *Reader) fill() {
	// Bits above nacc may hold junk from a previous bulk refill; clear
	// them so the ORs below land on zeroes.
	r.acc &= 1<<r.nacc - 1
	if r.pos+8 <= len(r.src) {
		// Bulk refill: one unaligned 64-bit load tops the accumulator up
		// to >= 57 valid bits — (64-nacc)/8 whole bytes fit, and fill is
		// only entered with nacc <= 56, so at least one byte always lands.
		r.acc |= binary.LittleEndian.Uint64(r.src[r.pos:]) << r.nacc
		adv := (64 - r.nacc) >> 3
		r.pos += int(adv)
		r.nacc += adv * 8
		return
	}
	for r.nacc <= 56 && r.pos < len(r.src) {
		r.acc |= uint64(r.src[r.pos]) << r.nacc
		r.pos++
		r.nacc += 8
	}
}

// ReadBits reads n bits (0 <= n <= 57). It returns ErrUnexpectedEOF if the
// stream has fewer than n bits left.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 57 {
		panic(fmt.Sprintf("bits: ReadBits n=%d out of range", n))
	}
	if r.nacc < n {
		r.fill()
		if r.nacc < n {
			return 0, ErrUnexpectedEOF
		}
	}
	v := r.acc & (1<<n - 1)
	r.acc >>= n
	r.nacc -= n
	return v, nil
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint, error) {
	v, err := r.ReadBits(1)
	return uint(v), err
}

// Peek returns up to n bits without consuming them. Fewer bits may be
// returned near the end of the stream; use Have to check.
func (r *Reader) Peek(n uint) uint64 {
	if r.nacc < n {
		r.fill()
	}
	return r.acc & (1<<n - 1)
}

// Have reports how many bits can still be read.
func (r *Reader) Have() int {
	return int(r.nacc) + (len(r.src)-r.pos)*8
}

// Skip consumes n bits. It returns ErrUnexpectedEOF when fewer remain.
func (r *Reader) Skip(n uint) error {
	_, err := r.ReadBits(n)
	return err
}

// Align discards bits up to the next byte boundary.
func (r *Reader) Align() {
	drop := r.nacc % 8
	r.acc >>= drop
	r.nacc -= drop
}
