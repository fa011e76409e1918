package codec

import (
	"encoding/binary"
	"fmt"
)

// lz4Codec implements the LZ4 block format: token-based sequences of
// literals plus (offset, length) matches within a 64 KiB window, found by
// a single-probe hash table. It is the canonical fast/low-ratio LZ in the
// pool.
//
// Each sequence: token (hi nibble = literal length, lo nibble = match
// length - 4, 15 means "extended with 255-run bytes"), literals, 2-byte LE
// offset, match length extension. The final sequence carries literals only.
type lz4Codec struct{}

func (lz4Codec) Name() string { return "lz4" }
func (lz4Codec) ID() ID       { return idLZ4 }

const (
	lz4HashLog  = 16
	lz4MinMatch = 4
	// Matches may not begin within the last lz4MFLimit bytes of input;
	// this mirrors the reference implementation's end-of-block rules.
	lz4MFLimit = 12
)

func lz4Hash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lz4HashLog)
}

func (lz4Codec) Compress(dst, src []byte) ([]byte, error) {
	if len(src) == 0 {
		return dst, nil
	}
	var table [1 << lz4HashLog]int32
	for i := range table {
		table[i] = -1
	}
	anchor := 0
	i := 0
	limit := len(src) - lz4MFLimit
	for i < limit {
		v := binary.LittleEndian.Uint32(src[i:])
		h := lz4Hash(v)
		cand := table[h]
		table[h] = int32(i)
		if cand < 0 || i-int(cand) > 65535 || binary.LittleEndian.Uint32(src[cand:]) != v {
			i++
			continue
		}
		// Extend the match forward.
		maxMatch := len(src) - 5 - i // keep last 5 bytes literal
		mlen := lzExtendMatch(src, int(cand), i, lz4MinMatch, maxMatch)
		if mlen < lz4MinMatch {
			i++
			continue
		}
		dst = lz4EmitSequence(dst, src[anchor:i], i-int(cand), mlen)
		i += mlen
		anchor = i
	}
	// Trailing literals.
	dst = lz4EmitSequence(dst, src[anchor:], 0, 0)
	return dst, nil
}

// lz4EmitSequence writes one sequence. A zero match length means "final
// literal-only sequence".
func lz4EmitSequence(dst, lits []byte, offset, mlen int) []byte {
	litLen := len(lits)
	tok := byte(0)
	if litLen >= 15 {
		tok = 0xF0
	} else {
		tok = byte(litLen) << 4
	}
	ml := 0
	if mlen > 0 {
		ml = mlen - lz4MinMatch
		if ml >= 15 {
			tok |= 0x0F
		} else {
			tok |= byte(ml)
		}
	}
	dst = append(dst, tok)
	if litLen >= 15 {
		dst = lz4ExtLen(dst, litLen-15)
	}
	dst = append(dst, lits...)
	if mlen == 0 {
		return dst
	}
	dst = append(dst, byte(offset), byte(offset>>8))
	if ml >= 15 {
		dst = lz4ExtLen(dst, ml-15)
	}
	return dst
}

func lz4ExtLen(dst []byte, n int) []byte {
	for n >= 255 {
		dst = append(dst, 255)
		n -= 255
	}
	return append(dst, byte(n))
}

// lz4DecPad is the slack appended past the decoded length so the hot loop
// can copy fixed-size chunks that overshoot a sequence's true length; the
// junk lands in the pad and is trimmed off the returned slice.
const lz4DecPad = 16

// Decompress is index-based: dst is pre-extended by srcLen (plus pad) once
// and both cursors are plain ints, so the sequence loop runs without append
// bookkeeping or per-match function calls. Short literal runs and matches
// move as fixed 16- or 8-byte chunks. A stream that would overrun srcLen
// is rejected at the offending sequence — the same streams the old
// append-then-check-total loop rejected at the end.
func (lz4Codec) Decompress(dst, src []byte, srcLen int) ([]byte, error) {
	base := len(dst)
	dst = extendSlice(dst, srcLen+lz4DecPad)
	limit := base + srcLen
	w := base
	i := 0
	for i < len(src) {
		tok := src[i]
		i++
		litLen := int(tok >> 4)
		if litLen == 15 {
			var err error
			litLen, i, err = lz4ReadExtLen(src, i, litLen)
			if err != nil {
				return nil, err
			}
		}
		if i+litLen > len(src) {
			return nil, fmt.Errorf("%w: lz4 literals overrun input", errCorrupt)
		}
		if w+litLen > limit {
			return nil, fmt.Errorf("%w: lz4 literals overrun output", errCorrupt)
		}
		if litLen <= 16 && i+16 <= len(src) {
			copy(dst[w:w+16], src[i:i+16]) // overshoot lands in pad
		} else {
			copy(dst[w:], src[i:i+litLen])
		}
		w += litLen
		i += litLen
		if i == len(src) {
			break // final literal-only sequence
		}
		if i+2 > len(src) {
			return nil, fmt.Errorf("%w: lz4 truncated offset", errCorrupt)
		}
		offset := int(src[i]) | int(src[i+1])<<8
		i += 2
		mlen := int(tok & 0x0F)
		if mlen == 15 {
			var err error
			mlen, i, err = lz4ReadExtLen(src, i, mlen)
			if err != nil {
				return nil, err
			}
		}
		mlen += lz4MinMatch
		if offset <= 0 || offset > w-base {
			return nil, fmt.Errorf("%w: lz4 match offset %d out of window", errCorrupt, offset)
		}
		if w+mlen > limit {
			return nil, fmt.Errorf("%w: lz4 match overruns output", errCorrupt)
		}
		s := w - offset
		end := w + mlen
		switch {
		case offset >= 8:
			// 8-byte strides, overshooting into the pad.
			for d := w; d < end; d += 8 {
				copy(dst[d:d+8], dst[s:s+8])
				s += 8
			}
			w = end
		case offset >= mlen:
			copy(dst[w:end], dst[s:s+mlen])
			w = end
		default:
			// Overlapping short-offset run: double the materialized span.
			for w < end {
				w += copy(dst[w:end], dst[s:w])
			}
		}
	}
	if w != limit {
		return nil, fmt.Errorf("%w: lz4 produced %d bytes, want %d", errCorrupt, w-base, srcLen)
	}
	return dst[:limit], nil
}

func lz4ReadExtLen(src []byte, i, n int) (int, int, error) {
	for {
		if i >= len(src) {
			return 0, 0, fmt.Errorf("%w: lz4 truncated length", errCorrupt)
		}
		b := src[i]
		i++
		n += int(b)
		if b != 255 {
			return n, i, nil
		}
	}
}
