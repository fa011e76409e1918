package codec

import (
	"encoding/binary"
	"fmt"
)

// snappyCodec implements the Snappy block format from scratch: varint
// uncompressed length followed by literal and copy elements. The encoder
// uses Snappy's skip-acceleration heuristic so that incompressible input
// degrades to near-memcpy speed.
//
// pithyCodec emits the same element grammar but trades ratio for speed:
// a smaller hash table, a more aggressive skip schedule, and a longer
// minimum match. (Pithy was historically a Snappy derivative tuned the
// same way.) The two codecs share the decoder.
type snappyCodec struct{}

func (snappyCodec) Name() string { return "snappy" }
func (snappyCodec) ID() ID       { return idSnappy }

type pithyCodec struct{}

func (pithyCodec) Name() string { return "pithy" }
func (pithyCodec) ID() ID       { return idPithy }

const (
	snapTagLiteral = 0x00
	snapTagCopy1   = 0x01
	snapTagCopy2   = 0x02
	snapTagCopy4   = 0x03
	snapFragment   = 1 << 16 // offsets stay < 65536 within a fragment
)

type snapParams struct {
	hashLog   int
	skipShift uint // larger shift = slower skip growth = better ratio
	minMatch  int
}

var (
	snappyParams = snapParams{hashLog: 14, skipShift: 5, minMatch: 4}
	pithyParams  = snapParams{hashLog: 11, skipShift: 3, minMatch: 6}
)

func (snappyCodec) Compress(dst, src []byte) ([]byte, error) {
	var table [1 << 14]int32 // snappyParams.hashLog
	return snapCompress(dst, src, snappyParams, table[:]), nil
}

func (pithyCodec) Compress(dst, src []byte) ([]byte, error) {
	var table [1 << 11]int32 // pithyParams.hashLog
	return snapCompress(dst, src, pithyParams, table[:]), nil
}

func (snappyCodec) Decompress(dst, src []byte, srcLen int) ([]byte, error) {
	return snapDecompress(dst, src, srcLen, "snappy")
}

func (pithyCodec) Decompress(dst, src []byte, srcLen int) ([]byte, error) {
	return snapDecompress(dst, src, srcLen, "pithy")
}

// snapCompress compresses src into dst using the caller's hash table
// (len(table) == 1<<p.hashLog) — a stack array in both codecs, so the
// encoder allocates nothing beyond dst growth.
func snapCompress(dst, src []byte, p snapParams, table []int32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	for len(src) > 0 {
		n := len(src)
		if n > snapFragment {
			n = snapFragment
		}
		dst = snapCompressFragment(dst, src[:n], p, table)
		src = src[n:]
	}
	return dst
}

func snapCompressFragment(dst, src []byte, p snapParams, table []int32) []byte {
	if len(src) < p.minMatch+4 {
		return snapEmitLiteral(dst, src)
	}
	for i := range table {
		table[i] = -1
	}
	shift := uint(32 - p.hashLog)
	hash := func(v uint32) uint32 { return (v * 0x1e35a7bd) >> shift }

	anchor := 0
	i := 0
	limit := len(src) - 8
	skip := 32
	for i < limit {
		v := binary.LittleEndian.Uint32(src[i:])
		h := hash(v)
		cand := table[h]
		table[h] = int32(i)
		if cand < 0 || binary.LittleEndian.Uint32(src[cand:]) != v {
			i += skip >> p.skipShift
			skip++
			continue
		}
		// Extend.
		mlen := lzExtendMatch(src, int(cand), i, 4, len(src)-i)
		if mlen < p.minMatch {
			i += skip >> p.skipShift
			skip++
			continue
		}
		skip = 32
		dst = snapEmitLiteral(dst, src[anchor:i])
		dst = snapEmitCopy(dst, i-int(cand), mlen)
		i += mlen
		anchor = i
	}
	return snapEmitLiteral(dst, src[anchor:])
}

func snapEmitLiteral(dst, lits []byte) []byte {
	n := len(lits)
	if n == 0 {
		return dst
	}
	switch {
	case n <= 60:
		dst = append(dst, byte(n-1)<<2|snapTagLiteral)
	case n <= 1<<8:
		dst = append(dst, 60<<2|snapTagLiteral, byte(n-1))
	case n <= 1<<16:
		dst = append(dst, 61<<2|snapTagLiteral, byte(n-1), byte((n-1)>>8))
	default:
		dst = append(dst, 62<<2|snapTagLiteral, byte(n-1), byte((n-1)>>8), byte((n-1)>>16))
	}
	return append(dst, lits...)
}

func snapEmitCopy(dst []byte, offset, mlen int) []byte {
	for mlen > 0 {
		n := mlen
		if n > 64 {
			n = 64
			if mlen-n < 4 {
				n = mlen - 4 // leave a legal-length tail copy
			}
		}
		if n >= 4 && n <= 11 && offset < 2048 {
			dst = append(dst,
				byte(offset>>8)<<5|byte(n-4)<<2|snapTagCopy1,
				byte(offset))
		} else {
			dst = append(dst, byte(n-1)<<2|snapTagCopy2, byte(offset), byte(offset>>8))
		}
		mlen -= n
	}
	return dst
}

func snapDecompress(dst, src []byte, srcLen int, name string) ([]byte, error) {
	want, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, fmt.Errorf("%w: %s bad preamble", errCorrupt, name)
	}
	if int(want) != srcLen {
		return nil, fmt.Errorf("%w: %s preamble %d != header %d", errCorrupt, name, want, srcLen)
	}
	src = src[n:]
	base := len(dst)
	i := 0
	for i < len(src) {
		tag := src[i]
		i++
		switch tag & 3 {
		case snapTagLiteral:
			litLen := int(tag >> 2)
			switch {
			case litLen < 60:
				litLen++
			case litLen == 60:
				if i >= len(src) {
					return nil, fmt.Errorf("%w: %s literal length", errCorrupt, name)
				}
				litLen = int(src[i]) + 1
				i++
			case litLen == 61:
				if i+1 >= len(src) {
					return nil, fmt.Errorf("%w: %s literal length", errCorrupt, name)
				}
				litLen = int(src[i]) | int(src[i+1])<<8
				litLen++
				i += 2
			default:
				if i+2 >= len(src) {
					return nil, fmt.Errorf("%w: %s literal length", errCorrupt, name)
				}
				litLen = int(src[i]) | int(src[i+1])<<8 | int(src[i+2])<<16
				litLen++
				i += 3
			}
			if i+litLen > len(src) {
				return nil, fmt.Errorf("%w: %s literals overrun", errCorrupt, name)
			}
			dst = append(dst, src[i:i+litLen]...)
			i += litLen
		case snapTagCopy1:
			if i >= len(src) {
				return nil, fmt.Errorf("%w: %s copy1 truncated", errCorrupt, name)
			}
			mlen := int(tag>>2&0x7) + 4
			offset := int(tag>>5)<<8 | int(src[i])
			i++
			var err error
			dst, err = lzCopyMatch(dst, base, offset, mlen, name)
			if err != nil {
				return nil, err
			}
		case snapTagCopy2:
			if i+1 >= len(src) {
				return nil, fmt.Errorf("%w: %s copy2 truncated", errCorrupt, name)
			}
			mlen := int(tag>>2) + 1
			offset := int(src[i]) | int(src[i+1])<<8
			i += 2
			var err error
			dst, err = lzCopyMatch(dst, base, offset, mlen, name)
			if err != nil {
				return nil, err
			}
		default: // snapTagCopy4: accepted for format completeness
			if i+3 >= len(src) {
				return nil, fmt.Errorf("%w: %s copy4 truncated", errCorrupt, name)
			}
			mlen := int(tag>>2) + 1
			offset := int(binary.LittleEndian.Uint32(src[i:]))
			i += 4
			var err error
			dst, err = lzCopyMatch(dst, base, offset, mlen, name)
			if err != nil {
				return nil, err
			}
		}
	}
	if len(dst)-base != srcLen {
		return nil, fmt.Errorf("%w: %s produced %d bytes, want %d", errCorrupt, name, len(dst)-base, srcLen)
	}
	return dst, nil
}
