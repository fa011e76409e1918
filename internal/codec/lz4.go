package codec

import (
	"encoding/binary"
	"fmt"

	"hcompress/internal/bufpool"
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

func (c lz4Codec) Compress(dst, src []byte) ([]byte, error) {
	s := bufpool.GetScratch()
	defer bufpool.PutScratch(s)
	return c.CompressScratch(s, dst, src)
}

func (lz4Codec) DecompressScratch(_ *bufpool.Scratch, dst, src []byte, srcLen int) ([]byte, error) {
	return lz4Codec{}.Decompress(dst, src, srcLen)
}

// CompressScratch keeps its hash table in s.Head. An entry holds the
// position plus one, so the cleared table reads "empty" everywhere.
func (lz4Codec) CompressScratch(s *bufpool.Scratch, dst, src []byte) ([]byte, error) {
	if len(src) == 0 {
		return dst, nil
	}
	table := bufpool.GrowI32(&s.Head, 1<<lz4HashLog)
	clear(table)
	anchor := 0
	i := 0
	limit := len(src) - lz4MFLimit
	for i < limit {
		v := binary.LittleEndian.Uint32(src[i:])
		h := lz4Hash(v)
		cand := int(table[h]) - 1
		table[h] = int32(i + 1)
		if cand < 0 || i-cand > 65535 || binary.LittleEndian.Uint32(src[cand:]) != v {
			i++
			continue
		}
		// Extend the match forward.
		maxMatch := len(src) - 5 - i // keep last 5 bytes literal
		mlen := lzExtendMatch(src, cand, i, lz4MinMatch, maxMatch)
		if mlen < lz4MinMatch {
			i++
			continue
		}
		dst = lz4EmitSequence(dst, src[anchor:i], i-cand, mlen)
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

// lz4FastIn and lz4FastOut are the input and output slack a sequence
// needs for the fast path: a 16-byte literal copy (which also covers the
// offset, since fast literals are at most 14 bytes), then a match of at
// most 18 bytes moved as two 16-byte chunks from at most 14 bytes on.
const (
	lz4FastIn  = 16
	lz4FastOut = 14 + 32
)

// Decompress is index-based: dst is extended by exactly srcLen once and
// both cursors are plain ints, so the sequence loop runs without append
// bookkeeping or per-match function calls. A sequence whose literal and
// match nibbles are both below 15 takes the fast path when both cursors
// have the slack above: fixed-size array moves (register copies, not
// memmove calls) that may overshoot the sequence's end but never the
// region, since the junk lands where the next sequences write. Every
// other sequence (extended lengths, the last ones before either end) is
// copied exactly. So an exact-capacity region is filled in place. A
// stream that would overrun srcLen is rejected at the offending sequence.
func (lz4Codec) Decompress(dst, src []byte, srcLen int) ([]byte, error) {
	base := len(dst)
	dst = extendSlice(dst, srcLen)
	limit := base + srcLen
	w := base
	i := 0
	for i < len(src) {
		tok := src[i]
		i++
		litLen, mlen := int(tok>>4), int(tok&0x0F)
		fast := litLen < 15 && mlen < 15 && i+lz4FastIn <= len(src) && w+lz4FastOut <= limit
		if fast {
			*(*[16]byte)(dst[w:]) = *(*[16]byte)(src[i:])
		} else {
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
			copy(dst[w:w+litLen], src[i:i+litLen])
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
		case fast && offset >= 16:
			for d := w; d < end; d += 16 {
				*(*[16]byte)(dst[d:]) = *(*[16]byte)(dst[s:])
				s += 16
			}
		case fast && offset >= 8:
			for d := w; d < end; d += 8 {
				*(*[8]byte)(dst[d:]) = *(*[8]byte)(dst[s:])
				s += 8
			}
		default:
			// Exact, and overlapping when offset < mlen: each copy
			// doubles the materialized span.
			for d := w; d < end; {
				d += copy(dst[d:end], dst[s:d])
			}
		}
		w = end
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
