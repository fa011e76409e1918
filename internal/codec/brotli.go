package codec

import (
	"encoding/binary"
	"fmt"

	"hcompress/internal/bits"
	"hcompress/internal/bufpool"
)

// brotliCodec is the pool's medium-speed / medium-ratio codec: LZSS over a
// 128 KiB window with depth-bounded hash chains and one-step-lazy matching,
// entropy-coded with two canonical Huffman tables (literal+length alphabet
// and distance alphabet), DEFLATE-style slot+extra-bits integer coding.
// It stands in for Brotli's "light" qualities in the paper's Fig. 1.
//
// Block format (blocks of brBlockSize):
//
//	u32 LE rawLen, u32 LE compLen; compLen == rawLen means stored raw.
//	Payload: nibble-packed code lengths for the 280-symbol literal/length
//	alphabet (140 bytes) and the 36-symbol distance alphabet (18 bytes),
//	then the LSB-first bitstream. Symbols 0..255 are literals; 256+slot
//	begins a match (slot extra bits, then a distance slot + extra bits).
type brotliCodec struct{}

func (brotliCodec) Name() string { return "brotli" }
func (brotliCodec) ID() ID       { return idBrotli }

const (
	brBlockSize  = 1 << 18
	brWindow     = 1 << 17
	brHashLog    = 16
	brChainDepth = 16
	brMinMatch   = 4
	brNumLenSlot = 24
	brNumDstSlot = 36
	brAlphabet   = 256 + brNumLenSlot
	brMaxCodeLen = 12
)

// Slot coding: slot s spans size 1<<(s>>1) values, so extra-bit counts run
// 0,0,1,1,2,2,... Match lengths start at brMinMatch, distances at 1.
func slotFor(v, base int) (slot, extra, ebits int) {
	v -= base
	slot = 0
	for size := 1; v >= size; slot++ {
		v -= size
		size = 1 << ((slot + 1) >> 1)
	}
	return slot, v, slot >> 1
}

func slotBase(slot, base int) int {
	for s := 0; s < slot; s++ {
		base += 1 << (s >> 1)
	}
	return base
}

func (c brotliCodec) Compress(dst, src []byte) ([]byte, error) {
	s := bufpool.GetScratch()
	defer bufpool.PutScratch(s)
	return c.CompressScratch(s, dst, src)
}

func (c brotliCodec) Decompress(dst, src []byte, srcLen int) ([]byte, error) {
	// Decompression uses only stack tables, but route through the scratch
	// path for symmetry with the interface contract.
	return c.DecompressScratch(nil, dst, src, srcLen)
}

func (brotliCodec) CompressScratch(s *bufpool.Scratch, dst, src []byte) ([]byte, error) {
	for len(src) > 0 {
		n := len(src)
		if n > brBlockSize {
			n = brBlockSize
		}
		dst = brCompressBlock(s, dst, src[:n])
		src = src[n:]
	}
	return dst, nil
}

// Tokens encode a literal (value < 256) or a match:
// bit 63 set, length in bits 32..46, distance in bits 0..31. They live in
// the Scratch's uint64 token buffer.
func brMatchToken(length, dist int) uint64 {
	return 1<<63 | uint64(length)<<32 | uint64(dist)
}

func brCompressBlock(s *bufpool.Scratch, dst, src []byte) []byte {
	tokens := brParse(s, src)

	var litFreq [brAlphabet]int
	var dstFreq [brNumDstSlot]int
	for _, t := range tokens {
		if t < 256 {
			litFreq[t]++
			continue
		}
		length := int(t>>32) & 0x7FFF
		dist := int(uint32(t))
		ls, _, _ := slotFor(length, brMinMatch)
		ds, _, _ := slotFor(dist, 1)
		litFreq[256+ls]++
		dstFreq[ds]++
	}
	var litLens [brAlphabet]uint8
	var dstLens [brNumDstSlot]uint8
	buildCodeLengths(litLens[:], litFreq[:], brMaxCodeLen)
	buildCodeLengths(dstLens[:], dstFreq[:], brMaxCodeLen)
	var litCodes [brAlphabet]uint32
	var dstCodes [brNumDstSlot]uint32
	canonicalCodes(litCodes[:], litLens[:])
	canonicalCodes(dstCodes[:], dstLens[:])

	hdr := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(dst[hdr:], uint32(len(src)))
	payloadStart := len(dst)

	for i := 0; i < brAlphabet; i += 2 {
		dst = append(dst, litLens[i]|litLens[i+1]<<4)
	}
	for i := 0; i < brNumDstSlot; i += 2 {
		dst = append(dst, dstLens[i]|dstLens[i+1]<<4)
	}
	var w bits.Writer
	w.Reset(dst)
	for _, t := range tokens {
		if t < 256 {
			w.WriteBits(uint64(litCodes[t]), uint(litLens[t]))
			continue
		}
		length := int(t>>32) & 0x7FFF
		dist := int(uint32(t))
		ls, le, leb := slotFor(length, brMinMatch)
		w.WriteBits(uint64(litCodes[256+ls]), uint(litLens[256+ls]))
		w.WriteBits(uint64(le), uint(leb))
		ds, de, deb := slotFor(dist, 1)
		w.WriteBits(uint64(dstCodes[ds]), uint(dstLens[ds]))
		w.WriteBits(uint64(de), uint(deb))
	}
	dst = w.Bytes()

	if len(dst)-payloadStart >= len(src) {
		dst = append(dst[:payloadStart], src...)
		binary.LittleEndian.PutUint32(dst[hdr+4:], uint32(len(src)))
		return dst
	}
	binary.LittleEndian.PutUint32(dst[hdr+4:], uint32(len(dst)-payloadStart))
	return dst
}

func brHashU32(v uint32) uint32 { return (v * 2654435761) >> (32 - brHashLog) }

func brInsert(src []byte, head, prev []int32, i int) {
	h := brHashU32(binary.LittleEndian.Uint32(src[i:]))
	prev[i] = head[h]
	head[h] = int32(i)
}

func brFind(src []byte, head, prev []int32, i int) (length, dist int) {
	v := binary.LittleEndian.Uint32(src[i:])
	cand := head[brHashU32(v)]
	maxMatch := len(src) - 4 - i
	if maxMatch > 8190 {
		maxMatch = 8190
	}
	for depth := 0; depth < brChainDepth && cand >= 0 && i-int(cand) <= brWindow; depth++ {
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

// brParse tokenizes src with hash chains and one-step lazy matching into
// the Scratch token buffer.
func brParse(s *bufpool.Scratch, src []byte) []uint64 {
	tokens := s.Tokens[:0]
	if len(src) < 12 {
		for _, b := range src {
			tokens = append(tokens, uint64(b))
		}
		s.Tokens = tokens
		return tokens
	}
	head := bufpool.GrowI32(&s.Head, 1<<brHashLog)
	for i := range head {
		head[i] = -1
	}
	prev := bufpool.GrowI32(&s.Prev, len(src))

	i := 0
	limit := len(src) - 8
	for i < limit {
		length, dist := brFind(src, head, prev, i)
		brInsert(src, head, prev, i)
		if length < brMinMatch {
			tokens = append(tokens, uint64(src[i]))
			i++
			continue
		}
		// Lazy: a longer match one byte later wins.
		if i+1 < limit {
			l2, d2 := brFind(src, head, prev, i+1)
			if l2 > length+1 {
				tokens = append(tokens, uint64(src[i]))
				i++
				brInsert(src, head, prev, i)
				length, dist = l2, d2
			}
		}
		tokens = append(tokens, brMatchToken(length, dist))
		end := i + length
		if end > limit {
			end = limit
		}
		for j := i + 1; j < end; j += 3 {
			brInsert(src, head, prev, j)
		}
		i += length
	}
	for ; i < len(src); i++ {
		tokens = append(tokens, uint64(src[i]))
	}
	s.Tokens = tokens
	return tokens
}

func (brotliCodec) DecompressScratch(s *bufpool.Scratch, dst, src []byte, srcLen int) ([]byte, error) {
	base := len(dst)
	for len(src) > 0 {
		if len(src) < 8 {
			return nil, fmt.Errorf("%w: brotli truncated block header", errCorrupt)
		}
		rawLen := int(binary.LittleEndian.Uint32(src))
		compLen := int(binary.LittleEndian.Uint32(src[4:]))
		src = src[8:]
		if compLen > len(src) || rawLen > brBlockSize {
			return nil, fmt.Errorf("%w: brotli block lengths", errCorrupt)
		}
		var err error
		dst, err = brDecompressBlock(dst, src[:compLen], rawLen, base)
		if err != nil {
			return nil, err
		}
		src = src[compLen:]
	}
	if len(dst)-base != srcLen {
		return nil, fmt.Errorf("%w: brotli produced %d bytes, want %d", errCorrupt, len(dst)-base, srcLen)
	}
	return dst, nil
}

func brDecompressBlock(dst, payload []byte, rawLen, base int) ([]byte, error) {
	if len(payload) == rawLen {
		return append(dst, payload...), nil
	}
	const hdrLen = brAlphabet/2 + brNumDstSlot/2
	if len(payload) < hdrLen {
		return nil, fmt.Errorf("%w: brotli payload too short", errCorrupt)
	}
	var litLens [brAlphabet]uint8
	for i := 0; i < brAlphabet/2; i++ {
		litLens[2*i] = payload[i] & 0x0F
		litLens[2*i+1] = payload[i] >> 4
	}
	var dstLens [brNumDstSlot]uint8
	off := brAlphabet / 2
	for i := 0; i < brNumDstSlot/2; i++ {
		dstLens[2*i] = payload[off+i] & 0x0F
		dstLens[2*i+1] = payload[off+i] >> 4
	}
	var litTable [1 << brMaxCodeLen]uint32
	if err := buildPairDecodeTable(litTable[:], litLens[:], brMaxCodeLen); err != nil {
		return nil, err
	}
	var dstTable [1 << brMaxCodeLen]uint32
	if err := buildDecodeTable(dstTable[:], dstLens[:], brMaxCodeLen); err != nil {
		return nil, err
	}
	// Inline bitstream (the LSB-first layout bits.Writer packs): a match
	// consumes at most 12+12+12+17 = 53 bits, so one bulk refill at the
	// top of the loop covers every path through an iteration.
	bs := payload[hdrLen:]
	var acc uint64
	var nacc uint
	pos := 0
	produced := 0
	for produced < rawLen {
		if nacc < 53 {
			acc &= 1<<nacc - 1
			if pos+8 <= len(bs) {
				acc |= binary.LittleEndian.Uint64(bs[pos:]) << nacc
				pos += int((63 - nacc) >> 3)
				nacc |= 56
			} else {
				for nacc <= 56 && pos < len(bs) {
					acc |= uint64(bs[pos]) << nacc
					pos++
					nacc += 8
				}
			}
		}
		e := litTable[acc&(1<<brMaxCodeLen-1)]
		if e&huffPairFlag != 0 && produced+2 <= rawLen {
			// Two literals resolved by a single table probe.
			l := uint(e & 31)
			if nacc >= l {
				acc >>= l
				nacc -= l
				dst = append(dst, byte(e>>6), byte(e>>16))
				produced += 2
				continue
			}
		}
		l := uint(e >> 26)
		if l == 0 || nacc < l {
			return nil, fmt.Errorf("%w: brotli invalid literal code", errCorrupt)
		}
		acc >>= l
		nacc -= l
		sym := int(e>>6) & 0x3FF
		if sym < 256 {
			dst = append(dst, byte(sym))
			produced++
			continue
		}
		slot := sym - 256
		eb := uint(slot >> 1)
		if nacc < eb {
			return nil, fmt.Errorf("%w: brotli truncated length extra", errCorrupt)
		}
		extra := acc & (1<<eb - 1)
		acc >>= eb
		nacc -= eb
		length := slotBase(slot, brMinMatch) + int(extra)

		de := dstTable[acc&(1<<brMaxCodeLen-1)]
		dl := uint(de & 0x0F)
		if dl == 0 || nacc < dl {
			return nil, fmt.Errorf("%w: brotli invalid distance code", errCorrupt)
		}
		acc >>= dl
		nacc -= dl
		dslot := int(de >> 4)
		deb := uint(dslot >> 1)
		if nacc < deb {
			return nil, fmt.Errorf("%w: brotli truncated distance extra", errCorrupt)
		}
		dextra := acc & (1<<deb - 1)
		acc >>= deb
		nacc -= deb
		dist := slotBase(dslot, 1) + int(dextra)

		var err error
		dst, err = lzCopyMatch(dst, base, dist, length, "brotli")
		if err != nil {
			return nil, err
		}
		produced += length
	}
	if produced != rawLen {
		return nil, fmt.Errorf("%w: brotli block overproduced", errCorrupt)
	}
	return dst, nil
}
