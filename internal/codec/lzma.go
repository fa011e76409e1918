package codec

import (
	"encoding/binary"
	"fmt"

	"hcompress/internal/bufpool"
)

// lzmaCodec is a from-scratch mini-LZMA: LZ77 over a 1 MiB window with
// deep hash chains and lazy matching, entropy-coded by the adaptive binary
// range coder with context modeling (literal trees keyed by the previous
// byte's high bits, slot-coded distances). It occupies the paper's
// "best ratio, slowest" corner together with bsc.
//
// Stream layout: range-coded sequence of
//
//	isMatch bit (context: last op) ->
//	  0: literal (8-bit tree, ctx = prev byte >> 5)
//	  1: length (8-bit tree, value = len - lzmaMinMatch, max 255) then
//	     distance slot (6-bit tree) + direct extra bits
//
// The decoder stops after producing srcLen bytes, so no end marker is
// needed.
type lzmaCodec struct{}

func (lzmaCodec) Name() string { return "lzma" }
func (lzmaCodec) ID() ID       { return idLZMA }

const (
	lzmaWindow     = 1 << 20
	lzmaHashLog    = 17
	lzmaChainDepth = 48
	lzmaMinMatch   = 4
	lzmaMaxMatch   = lzmaMinMatch + 255
	lzmaNumSlots   = 42 // covers distances beyond the 1 MiB window
	lzmaLitCtx     = 8

	// Probability-slab layout: literal trees, then length tree, then slot
	// tree. isMatch stays a stack pair.
	lzmaLitOff   = 0
	lzmaLenOff   = lzmaLitCtx * 256
	lzmaSlotOff  = lzmaLenOff + 256
	lzmaNumProbs = lzmaSlotOff + 64
)

// lzmaProbs is a view over the Scratch probability slab. The struct itself
// is a stack value; only the slab is (re)used memory.
type lzmaProbs struct {
	isMatch [2]uint16
	lit     []uint16 // lzmaLitCtx contexts x 256-entry trees
	length  []uint16 // one 256-entry tree
	slot    []uint16 // one 64-entry tree
}

func lzmaProbsFrom(s *bufpool.Scratch) lzmaProbs {
	slab := bufpool.GrowU16(&s.Probs, lzmaNumProbs)
	initProbs(slab)
	return lzmaProbs{
		isMatch: [2]uint16{rcProbInit, rcProbInit},
		lit:     slab[lzmaLitOff:lzmaLenOff],
		length:  slab[lzmaLenOff:lzmaSlotOff],
		slot:    slab[lzmaSlotOff:lzmaNumProbs],
	}
}

func lzmaHashU32(v uint32) uint32 { return (v * 2654435761) >> (32 - lzmaHashLog) }

func lzmaInsert(src []byte, head, prev []int32, i int) {
	if i+4 > len(src) {
		return
	}
	h := lzmaHashU32(binary.LittleEndian.Uint32(src[i:]))
	prev[i] = head[h]
	head[h] = int32(i)
}

func lzmaFind(src []byte, head, prev []int32, i int) (length, dist int) {
	if i+4 > len(src) {
		return 0, 0
	}
	v := binary.LittleEndian.Uint32(src[i:])
	cand := head[lzmaHashU32(v)]
	maxMatch := len(src) - i
	if maxMatch > lzmaMaxMatch {
		maxMatch = lzmaMaxMatch
	}
	for depth := 0; depth < lzmaChainDepth && cand >= 0 && i-int(cand) <= lzmaWindow; depth++ {
		c := int(cand)
		cand = prev[c]
		if binary.LittleEndian.Uint32(src[c:]) != v {
			continue
		}
		mlen := lzExtendMatch(src, c, i, 4, maxMatch)
		if mlen > length {
			length, dist = mlen, i-c
		}
	}
	return length, dist
}

func (e *rcEncoder) lzmaEmitLiteral(p *lzmaProbs, src []byte, i, state int) {
	e.encodeBit(&p.isMatch[state], 0)
	ctx := 0
	if i > 0 {
		ctx = int(src[i-1] >> 5)
	}
	e.encodeTree(p.lit[ctx*256:(ctx+1)*256], uint32(src[i]), 8)
}

func (c lzmaCodec) Compress(dst, src []byte) ([]byte, error) {
	s := bufpool.GetScratch()
	defer bufpool.PutScratch(s)
	return c.CompressScratch(s, dst, src)
}

func (c lzmaCodec) Decompress(dst, src []byte, srcLen int) ([]byte, error) {
	s := bufpool.GetScratch()
	defer bufpool.PutScratch(s)
	return c.DecompressScratch(s, dst, src, srcLen)
}

func (lzmaCodec) CompressScratch(s *bufpool.Scratch, dst, src []byte) ([]byte, error) {
	hdr := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(dst[hdr:], uint32(len(src)))
	if len(src) == 0 {
		return dst, nil
	}

	var e rcEncoder
	e.init(dst)
	p := lzmaProbsFrom(s)

	head := bufpool.GrowI32(&s.Head, 1<<lzmaHashLog)
	for i := range head {
		head[i] = -1
	}
	prev := bufpool.GrowI32(&s.Prev, len(src))

	state := 0 // 0 = after literal, 1 = after match
	i := 0
	for i < len(src) {
		length, dist := lzmaFind(src, head, prev, i)
		if length >= lzmaMinMatch && i+1 < len(src) {
			// Lazy one-step lookahead.
			l2, _ := lzmaFind(src, head, prev, i+1)
			if l2 > length+1 {
				lzmaInsert(src, head, prev, i)
				e.lzmaEmitLiteral(&p, src, i, state)
				state = 0
				i++
				continue
			}
			_ = dist
		}
		if length < lzmaMinMatch {
			lzmaInsert(src, head, prev, i)
			e.lzmaEmitLiteral(&p, src, i, state)
			state = 0
			i++
			continue
		}
		e.encodeBit(&p.isMatch[state], 1)
		e.encodeTree(p.length, uint32(length-lzmaMinMatch), 8)
		slot, extra, ebits := slotFor(dist, 1)
		e.encodeTree(p.slot, uint32(slot), 6)
		if ebits > 0 {
			e.encodeDirect(uint32(extra), uint(ebits))
		}
		end := i + length
		for j := i; j < end && j < len(src); j += 2 {
			lzmaInsert(src, head, prev, j)
		}
		i = end
		state = 1
	}
	return e.flush(), nil
}

func (lzmaCodec) DecompressScratch(s *bufpool.Scratch, dst, src []byte, srcLen int) ([]byte, error) {
	if len(src) < 4 {
		return nil, fmt.Errorf("%w: lzma truncated header", errCorrupt)
	}
	rawLen := int(binary.LittleEndian.Uint32(src))
	if rawLen != srcLen {
		return nil, fmt.Errorf("%w: lzma header %d != %d", errCorrupt, rawLen, srcLen)
	}
	src = src[4:]
	if rawLen == 0 {
		return dst, nil
	}
	var d rcDecoder
	d.init(src)
	p := lzmaProbsFrom(s)
	base := len(dst)
	state := 0
	for len(dst)-base < rawLen {
		if d.decodeBit(&p.isMatch[state]) == 0 {
			ctx := 0
			if len(dst) > base {
				ctx = int(dst[len(dst)-1] >> 5)
			}
			dst = append(dst, byte(d.decodeTree(p.lit[ctx*256:(ctx+1)*256], 8)))
			state = 0
			continue
		}
		length := int(d.decodeTree(p.length, 8)) + lzmaMinMatch
		slot := int(d.decodeTree(p.slot, 6))
		ebits := slot >> 1
		extra := 0
		if ebits > 0 {
			extra = int(d.decodeDirect(uint(ebits)))
		}
		dist := slotBase(slot, 1) + extra
		var err error
		dst, err = lzCopyMatch(dst, base, dist, length, "lzma")
		if err != nil {
			return nil, err
		}
		state = 1
	}
	if d.overran() || len(dst)-base != rawLen {
		return nil, fmt.Errorf("%w: lzma stream", errCorrupt)
	}
	return dst, nil
}
