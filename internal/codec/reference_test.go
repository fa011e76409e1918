package codec

// Pre-pass reference decoders, copied verbatim from the implementations
// that existed before the raw-speed pass (PR 9), for differential
// testing: the rewritten hot loops must agree with these byte-for-byte on
// every valid stream, and must reach the same accept/reject verdict on
// mutated streams.
//
// Nothing here ships in the production binary (test-only file).

import (
	"encoding/binary"
	"fmt"

	"hcompress/internal/bufpool"
)

// ---- pre-pass bit reader (byte-at-a-time refill) ----

type refBitsReader struct {
	src  []byte
	pos  int
	acc  uint64
	nacc uint
}

func (r *refBitsReader) reset(src []byte) {
	r.src = src
	r.pos = 0
	r.acc = 0
	r.nacc = 0
}

func (r *refBitsReader) fill() {
	for r.nacc <= 56 && r.pos < len(r.src) {
		r.acc |= uint64(r.src[r.pos]) << r.nacc
		r.pos++
		r.nacc += 8
	}
}

func (r *refBitsReader) readBits(n uint) (uint64, error) {
	if r.nacc < n {
		r.fill()
		if r.nacc < n {
			return 0, errRefEOF
		}
	}
	v := r.acc & (1<<n - 1)
	r.acc >>= n
	r.nacc -= n
	return v, nil
}

func (r *refBitsReader) peek(n uint) uint64 {
	if r.nacc < n {
		r.fill()
	}
	return r.acc & (1<<n - 1)
}

func (r *refBitsReader) have() int {
	return int(r.nacc) + (len(r.src)-r.pos)*8
}

func (r *refBitsReader) skip(n uint) {
	r.acc >>= n
	r.nacc -= n
}

var errRefEOF = fmt.Errorf("ref: unexpected end of bitstream")

// ---- pre-pass single-level Huffman decode table ----

func refBuildDecodeTable(table []uint32, lengths []uint8, maxLen int) error {
	var codes [huffMaxAlphabet]uint32
	canonicalCodes(codes[:len(lengths)], lengths)
	for s, l := range lengths {
		if l == 0 {
			continue
		}
		if int(l) > maxLen {
			return fmt.Errorf("%w: code length %d > %d", errCorrupt, l, maxLen)
		}
		entry := uint32(s)<<4 | uint32(l)
		step := 1 << l
		for i := int(codes[s]); i < len(table); i += step {
			table[i] = entry
		}
	}
	return nil
}

func refHuffDecompressBlock(dst, payload []byte, rawLen int) ([]byte, error) {
	if len(payload) == rawLen {
		return append(dst, payload...), nil
	}
	if len(payload) < 128 {
		return nil, fmt.Errorf("%w: huffman payload too short", errCorrupt)
	}
	var lengths [256]uint8
	for i := 0; i < 128; i++ {
		lengths[2*i] = payload[i] & 0x0F
		lengths[2*i+1] = payload[i] >> 4
	}
	var table [1 << huffMaxLen]uint32
	if err := refBuildDecodeTable(table[:], lengths[:], huffMaxLen); err != nil {
		return nil, err
	}
	var r refBitsReader
	r.reset(payload[128:])
	for i := 0; i < rawLen; i++ {
		e := table[r.peek(huffMaxLen)]
		l := uint(e & 0x0F)
		if l == 0 || r.have() < int(l) {
			return nil, fmt.Errorf("%w: huffman invalid code", errCorrupt)
		}
		r.skip(l)
		dst = append(dst, byte(e>>4))
	}
	return dst, nil
}

func refHuffmanDecompress(dst, src []byte, srcLen int) ([]byte, error) {
	base := len(dst)
	for len(src) > 0 {
		if len(src) < 8 {
			return nil, fmt.Errorf("%w: huffman truncated block header", errCorrupt)
		}
		rawLen := int(binary.LittleEndian.Uint32(src))
		compLen := int(binary.LittleEndian.Uint32(src[4:]))
		src = src[8:]
		if compLen > len(src) || rawLen > huffBlockSize {
			return nil, fmt.Errorf("%w: huffman block lengths", errCorrupt)
		}
		var err error
		dst, err = refHuffDecompressBlock(dst, src[:compLen], rawLen)
		if err != nil {
			return nil, err
		}
		src = src[compLen:]
	}
	if len(dst)-base != srcLen {
		return nil, fmt.Errorf("%w: huffman produced %d bytes, want %d", errCorrupt, len(dst)-base, srcLen)
	}
	return dst, nil
}

// ---- pre-pass lzCopyMatch (bulk copy only when non-overlapping) ----

func refLzCopyMatch(dst []byte, base, offset, mlen int, name string) ([]byte, error) {
	if offset <= 0 || offset > len(dst)-base {
		return nil, fmt.Errorf("%w: %s match offset %d out of window", errCorrupt, name, offset)
	}
	pos := len(dst) - offset
	if offset >= mlen {
		return append(dst, dst[pos:pos+mlen]...), nil
	}
	for k := 0; k < mlen; k++ {
		dst = append(dst, dst[pos+k])
	}
	return dst, nil
}

// ---- pre-pass LZ4 decoder ----

func refLZ4Decompress(dst, src []byte, srcLen int) ([]byte, error) {
	base := len(dst)
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
		dst = append(dst, src[i:i+litLen]...)
		i += litLen
		if i == len(src) {
			break
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
		var err error
		dst, err = refLzCopyMatch(dst, base, offset, mlen, "lz4")
		if err != nil {
			return nil, err
		}
	}
	if len(dst)-base != srcLen {
		return nil, fmt.Errorf("%w: lz4 produced %d bytes, want %d", errCorrupt, len(dst)-base, srcLen)
	}
	return dst, nil
}

// ---- pre-pass Snappy/Pithy decoder ----

func refSnapDecompress(dst, src []byte, srcLen int, name string) ([]byte, error) {
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
			dst, err = refLzCopyMatch(dst, base, offset, mlen, name)
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
			dst, err = refLzCopyMatch(dst, base, offset, mlen, name)
			if err != nil {
				return nil, err
			}
		default:
			if i+3 >= len(src) {
				return nil, fmt.Errorf("%w: %s copy4 truncated", errCorrupt, name)
			}
			mlen := int(tag>>2) + 1
			offset := int(binary.LittleEndian.Uint32(src[i:]))
			i += 4
			var err error
			dst, err = refLzCopyMatch(dst, base, offset, mlen, name)
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

// ---- pre-pass LZO decoder ----

func refLZODecompress(dst, src []byte, srcLen int) ([]byte, error) {
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
		dst, err = refLzCopyMatch(dst, base, offset, mlen, "lzo")
		if err != nil {
			return nil, err
		}
	}
	if len(dst)-base != srcLen {
		return nil, fmt.Errorf("%w: lzo produced %d bytes, want %d", errCorrupt, len(dst)-base, srcLen)
	}
	return dst, nil
}

// ---- pre-pass QuickLZ decoder ----

func refQlzDecompress(dst, src []byte, srcLen int) ([]byte, error) {
	base := len(dst)
	i := 0
	for i < len(src) {
		tag := src[i]
		i++
		switch {
		case tag <= 0x7F:
			n := int(tag) + 1
			if i+n > len(src) {
				return nil, fmt.Errorf("%w: quicklz literals overrun", errCorrupt)
			}
			dst = append(dst, src[i:i+n]...)
			i += n
		case tag <= 0xBF:
			if i+2 > len(src) {
				return nil, fmt.Errorf("%w: quicklz truncated offset", errCorrupt)
			}
			mlen := int(tag&0x3F) + qlzMinMatch
			offset := int(src[i]) | int(src[i+1])<<8
			i += 2
			var err error
			dst, err = refLzCopyMatch(dst, base, offset, mlen, "quicklz")
			if err != nil {
				return nil, err
			}
		default:
			words := int(tag&0x3F) + 1
			if len(dst)-base < 4 {
				return nil, fmt.Errorf("%w: quicklz word run without history", errCorrupt)
			}
			var err error
			dst, err = refLzCopyMatch(dst, base, 4, 4*words, "quicklz")
			if err != nil {
				return nil, err
			}
		}
	}
	if len(dst)-base != srcLen {
		return nil, fmt.Errorf("%w: quicklz produced %d bytes, want %d", errCorrupt, len(dst)-base, srcLen)
	}
	return dst, nil
}

// ---- pre-pass Brotli decoder ----

func refBrotliDecompress(dst, src []byte, srcLen int) ([]byte, error) {
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
		dst, err = refBrDecompressBlock(dst, src[:compLen], rawLen, base)
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

func refBrDecompressBlock(dst, payload []byte, rawLen, base int) ([]byte, error) {
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
	if err := refBuildDecodeTable(litTable[:], litLens[:], brMaxCodeLen); err != nil {
		return nil, err
	}
	var dstTable [1 << brMaxCodeLen]uint32
	if err := refBuildDecodeTable(dstTable[:], dstLens[:], brMaxCodeLen); err != nil {
		return nil, err
	}
	var r refBitsReader
	r.reset(payload[hdrLen:])
	produced := 0
	for produced < rawLen {
		e := litTable[r.peek(brMaxCodeLen)]
		l := uint(e & 0x0F)
		if l == 0 || r.have() < int(l) {
			return nil, fmt.Errorf("%w: brotli invalid literal code", errCorrupt)
		}
		r.skip(l)
		sym := int(e >> 4)
		if sym < 256 {
			dst = append(dst, byte(sym))
			produced++
			continue
		}
		slot := sym - 256
		extra, err := r.readBits(uint(slot >> 1))
		if err != nil {
			return nil, fmt.Errorf("%w: brotli truncated length extra", errCorrupt)
		}
		length := slotBase(slot, brMinMatch) + int(extra)

		de := dstTable[r.peek(brMaxCodeLen)]
		dl := uint(de & 0x0F)
		if dl == 0 || r.have() < int(dl) {
			return nil, fmt.Errorf("%w: brotli invalid distance code", errCorrupt)
		}
		r.skip(dl)
		dslot := int(de >> 4)
		dextra, err := r.readBits(uint(dslot >> 1))
		if err != nil {
			return nil, fmt.Errorf("%w: brotli truncated distance extra", errCorrupt)
		}
		dist := slotBase(dslot, 1) + int(dextra)

		dst, err = refLzCopyMatch(dst, base, dist, length, "brotli")
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

// ---- pre-pass range decoder ----

type refRcDecoder struct {
	rng  uint32
	code uint32
	src  []byte
	pos  int
}

func (d *refRcDecoder) init(src []byte) {
	d.rng = 0xFFFFFFFF
	d.code = 0
	d.src = src
	d.pos = 0
	for i := 0; i < 5; i++ {
		d.code = d.code<<8 | uint32(d.next())
	}
}

func (d *refRcDecoder) next() byte {
	if d.pos < len(d.src) {
		b := d.src[d.pos]
		d.pos++
		return b
	}
	d.pos++
	return 0
}

func (d *refRcDecoder) decodeBit(p *uint16) int {
	bound := (d.rng >> rcProbBits) * uint32(*p)
	var bit int
	if d.code < bound {
		d.rng = bound
		*p += (rcProbMax - *p) >> rcMoveShift
	} else {
		d.code -= bound
		d.rng -= bound
		*p -= *p >> rcMoveShift
		bit = 1
	}
	for d.rng < rcTop {
		d.code = d.code<<8 | uint32(d.next())
		d.rng <<= 8
	}
	return bit
}

func (d *refRcDecoder) decodeDirect(n uint) uint32 {
	var res uint32
	for ; n > 0; n-- {
		d.rng >>= 1
		res <<= 1
		if d.code >= d.rng {
			d.code -= d.rng
			res |= 1
		}
		for d.rng < rcTop {
			d.code = d.code<<8 | uint32(d.next())
			d.rng <<= 8
		}
	}
	return res
}

func (d *refRcDecoder) decodeTree(probs []uint16, nbits uint) uint32 {
	m := uint32(1)
	for i := uint(0); i < nbits; i++ {
		m = m<<1 | uint32(d.decodeBit(&probs[m]))
	}
	return m - 1<<nbits
}

func (d *refRcDecoder) overran() bool {
	return d.pos > len(d.src)+5
}

// ---- pre-pass RLE0 decode (MTF decode and inverse BWT: bwt_reference_test.go) ----

func refRle0Decode(s *bufpool.Scratch, src []byte, wantLen int) ([]byte, error) {
	out := bufpool.GrowBytes(&s.MTF, wantLen)[:0]
	i := 0
	for i < len(src) {
		b := src[i]
		i++
		if b != 0 {
			out = append(out, b)
			continue
		}
		run := 0
		shift := 0
		for {
			if i >= len(src) || shift > 28 {
				return nil, errCorrupt
			}
			v := src[i]
			i++
			run |= int(v&0x7F) << shift
			if v&0x80 == 0 {
				break
			}
			shift += 7
		}
		run++
		if len(out)+run > wantLen {
			return nil, errCorrupt
		}
		for k := 0; k < run; k++ {
			out = append(out, 0)
		}
	}
	if len(out) != wantLen {
		return nil, errCorrupt
	}
	return out, nil
}

// ---- pre-pass bsc entropy stage and BWT pipeline ----

func refRcEntropyDecode(s *bufpool.Scratch, dst, src []byte, rawLen int) ([]byte, error) {
	var d refRcDecoder
	d.init(src)
	probs := bufpool.GrowU16(&s.Probs, 4*256)
	initProbs(probs)
	ctx := 0
	for i := 0; i < rawLen; i++ {
		b := byte(d.decodeTree(probs[ctx*256:(ctx+1)*256], 8))
		dst = append(dst, b)
		ctx = byteClass(b)
	}
	if d.overran() {
		return nil, errCorrupt
	}
	return dst, nil
}

func refBwtPipelineDecompress(s *bufpool.Scratch, dst, src []byte, srcLen, blockSize int,
	ent func(s *bufpool.Scratch, dst, src []byte, rawLen int) ([]byte, error), name string) ([]byte, error) {
	base := len(dst)
	for len(src) > 0 {
		if len(src) < 16 {
			return nil, fmt.Errorf("%w: %s truncated block header", errCorrupt, name)
		}
		rawLen := int(binary.LittleEndian.Uint32(src))
		ptr := binary.LittleEndian.Uint32(src[4:])
		rleLen := int(binary.LittleEndian.Uint32(src[8:]))
		compLen := int(binary.LittleEndian.Uint32(src[12:]))
		src = src[16:]
		if compLen > len(src) || rawLen > blockSize || rleLen > 2*blockSize+8 {
			return nil, fmt.Errorf("%w: %s block lengths", errCorrupt, name)
		}
		if ptr == bwtRawMarker {
			if compLen != rawLen {
				return nil, fmt.Errorf("%w: %s raw block length", errCorrupt, name)
			}
			dst = append(dst, src[:compLen]...)
			src = src[compLen:]
			continue
		}
		rle, err := ent(s, bufpool.GrowBytes(&s.RLE, rleLen)[:0], src[:compLen], rleLen)
		if err != nil {
			return nil, err
		}
		src = src[compLen:]
		mtf, err := refRle0Decode(s, rle, rawLen)
		if err != nil {
			return nil, fmt.Errorf("%w: %s rle0", errCorrupt, name)
		}
		mtfDecode(mtf)
		dst, err = bwtInverse(s, dst, mtf, int(ptr))
		if err != nil {
			return nil, fmt.Errorf("%w: %s inverse bwt", errCorrupt, name)
		}
	}
	if len(dst)-base != srcLen {
		return nil, fmt.Errorf("%w: %s produced %d bytes, want %d", errCorrupt, name, len(dst)-base, srcLen)
	}
	return dst, nil
}

func refBscDecompress(s *bufpool.Scratch, dst, src []byte, srcLen int) ([]byte, error) {
	return refBwtPipelineDecompress(s, dst, src, srcLen, bscBlockSize, refRcEntropyDecode, "bsc")
}

func refHuffEntropyDecode(s *bufpool.Scratch, dst, src []byte, rawLen int) ([]byte, error) {
	return refHuffmanDecompress(dst, src, rawLen)
}

func refBzip2Decompress(s *bufpool.Scratch, dst, src []byte, srcLen int) ([]byte, error) {
	return refBwtPipelineDecompress(s, dst, src, srcLen, bz2BlockSize, refHuffEntropyDecode, "bzip2")
}

// ---- pre-pass LZMA decoder ----

func refLzmaDecompress(s *bufpool.Scratch, dst, src []byte, srcLen int) ([]byte, error) {
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
	var d refRcDecoder
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
		dst, err = refLzCopyMatch(dst, base, dist, length, "lzma")
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

// refDecompress dispatches to the pre-pass reference decoder for a codec;
// codecs whose decode path was not rewritten map to the live
// implementation (so the gate still watches them for regressions).
func refDecompress(c Codec, s *bufpool.Scratch, dst, src []byte, srcLen int) ([]byte, error) {
	switch c.ID() {
	case idHuffman:
		return refHuffmanDecompress(dst, src, srcLen)
	case idLZ4:
		return refLZ4Decompress(dst, src, srcLen)
	case idLZO:
		return refLZODecompress(dst, src, srcLen)
	case idPithy:
		return refSnapDecompress(dst, src, srcLen, "pithy")
	case idSnappy:
		return refSnapDecompress(dst, src, srcLen, "snappy")
	case idQuickLZ:
		return refQlzDecompress(dst, src, srcLen)
	case idBrotli:
		return refBrotliDecompress(dst, src, srcLen)
	case idBzip2:
		return refBzip2Decompress(s, dst, src, srcLen)
	case idBSC:
		return refBscDecompress(s, dst, src, srcLen)
	case idLZMA:
		return refLzmaDecompress(s, dst, src, srcLen)
	default:
		return DecompressWith(s, c, dst, src, srcLen)
	}
}
