package codec

import (
	"encoding/binary"
	"fmt"

	"hcompress/internal/bufpool"
)

// lzoCodec is a byte-aligned LZ with hash-chain match search (depth-bounded),
// sitting between lz4 and brotli on the speed/ratio curve: the chains find
// better matches than single-probe tables, at a modest CPU cost.
//
// Stream grammar:
//
//	tag with bit0 == 0: literal run; count = tag>>1 + 1 (1..128)
//	tag with bit0 == 1: match; length = (tag>>1 & 0x3F) + lzoMinMatch,
//	  bit7 set means an extension byte follows (adds 0..255 to length);
//	  then a 2-byte LE offset (1..65535).
type lzoCodec struct{}

func (lzoCodec) Name() string { return "lzo" }
func (lzoCodec) ID() ID       { return idLZO }

const (
	lzoHashLog    = 15
	lzoChainDepth = 8
	lzoMinMatch   = 4
	lzoMaxLenBase = 63 + lzoMinMatch
	lzoWindow     = 65535
)

func (c lzoCodec) Compress(dst, src []byte) ([]byte, error) {
	s := bufpool.GetScratch()
	defer bufpool.PutScratch(s)
	return c.CompressScratch(s, dst, src)
}

func (lzoCodec) DecompressScratch(s *bufpool.Scratch, dst, src []byte, srcLen int) ([]byte, error) {
	return lzoCodec{}.Decompress(dst, src, srcLen)
}

func (lzoCodec) CompressScratch(s *bufpool.Scratch, dst, src []byte) ([]byte, error) {
	if len(src) < 8 {
		return lzoEmitLiterals(dst, src), nil
	}
	head := bufpool.GrowI32(&s.Head, 1<<lzoHashLog)
	for i := range head {
		head[i] = -1
	}
	prev := bufpool.GrowI32(&s.Prev, len(src))
	hash := func(v uint32) uint32 { return (v * 2654435761) >> (32 - lzoHashLog) }

	anchor := 0
	i := 0
	limit := len(src) - 8
	for i < limit {
		v := binary.LittleEndian.Uint32(src[i:])
		h := hash(v)
		bestLen, bestOff := 0, 0
		cand := head[h]
		for depth := 0; depth < lzoChainDepth && cand >= 0 && i-int(cand) <= lzoWindow; depth++ {
			c := int(cand)
			if binary.LittleEndian.Uint32(src[c:]) == v {
				mlen := lzExtendMatch(src, c, i, 4, len(src)-4-i)
				if mlen > bestLen {
					bestLen, bestOff = mlen, i-c
				}
			}
			cand = prev[c]
		}
		prev[i] = head[h]
		head[h] = int32(i)
		if bestLen < lzoMinMatch {
			i++
			continue
		}
		dst = lzoEmitLiterals(dst, src[anchor:i])
		dst = lzoEmitMatch(dst, bestOff, bestLen)
		// Insert positions inside the match (sparsely, every 2nd byte) so
		// later matches can reference them without paying full cost.
		end := i + bestLen
		if end > limit {
			end = limit
		}
		for j := i + 1; j < end; j += 2 {
			vh := hash(binary.LittleEndian.Uint32(src[j:]))
			prev[j] = head[vh]
			head[vh] = int32(j)
		}
		i += bestLen
		anchor = i
	}
	return lzoEmitLiterals(dst, src[anchor:]), nil
}

func lzoEmitLiterals(dst, lits []byte) []byte {
	for len(lits) > 0 {
		n := len(lits)
		if n > 128 {
			n = 128
		}
		dst = append(dst, byte(n-1)<<1)
		dst = append(dst, lits[:n]...)
		lits = lits[n:]
	}
	return dst
}

func lzoEmitMatch(dst []byte, offset, mlen int) []byte {
	for mlen >= lzoMinMatch {
		n := mlen
		max := lzoMaxLenBase + 255
		if n > max {
			n = max
			if mlen-n > 0 && mlen-n < lzoMinMatch {
				n = mlen - lzoMinMatch
			}
		}
		base := n
		ext := -1
		if base > lzoMaxLenBase {
			ext = base - lzoMaxLenBase
			base = lzoMaxLenBase
		}
		tag := byte((base-lzoMinMatch)<<1) | 1
		if ext >= 0 {
			tag |= 0x80
			// bit7 doubles as both length-bit 6 and the extension flag;
			// keep them disjoint: base-lzoMinMatch <= 63 occupies bits 1..6.
		}
		dst = append(dst, tag)
		if ext >= 0 {
			dst = append(dst, byte(ext))
		}
		dst = append(dst, byte(offset), byte(offset>>8))
		mlen -= n
	}
	return dst
}

func (lzoCodec) Decompress(dst, src []byte, srcLen int) ([]byte, error) {
	base := len(dst)
	i := 0
	for i < len(src) {
		tag := src[i]
		i++
		if tag&1 == 0 {
			n := int(tag>>1) + 1
			if i+n > len(src) {
				return nil, fmt.Errorf("%w: lzo literals overrun", errCorrupt)
			}
			dst = append(dst, src[i:i+n]...)
			i += n
			continue
		}
		mlen := int(tag>>1&0x3F) + lzoMinMatch
		if tag&0x80 != 0 {
			if i >= len(src) {
				return nil, fmt.Errorf("%w: lzo truncated length ext", errCorrupt)
			}
			mlen += int(src[i])
			i++
		}
		if i+2 > len(src) {
			return nil, fmt.Errorf("%w: lzo truncated offset", errCorrupt)
		}
		offset := int(src[i]) | int(src[i+1])<<8
		i += 2
		var err error
		dst, err = lzCopyMatch(dst, base, offset, mlen, "lzo")
		if err != nil {
			return nil, err
		}
	}
	if len(dst)-base != srcLen {
		return nil, fmt.Errorf("%w: lzo produced %d bytes, want %d", errCorrupt, len(dst)-base, srcLen)
	}
	return dst, nil
}
