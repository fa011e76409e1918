package codec

import (
	"encoding/binary"
	"fmt"
	"slices"

	"hcompress/internal/bits"
)

// huffmanCodec is an order-0 canonical Huffman coder: the pure
// entropy-coding point in the pool. Fast on both ends, but blind to any
// repetition structure, so its ratio ceiling is the byte entropy.
//
// Block format (blocks of huffBlockSize):
//
//	u32 LE  rawLen   (uncompressed block length)
//	u32 LE  compLen  (length of the payload that follows)
//	if compLen == rawLen the block is stored raw (entropy expansion guard);
//	otherwise: 128 bytes of nibble-packed code lengths (256 x 4 bits),
//	then the LSB-first bitstream of codes.
//
// All work tables (symbol sort keys, tree nodes, code and decode tables)
// are fixed-size stack arrays, so compression and decompression allocate
// nothing beyond dst growth.
type huffmanCodec struct{}

func (huffmanCodec) Name() string { return "huffman" }
func (huffmanCodec) ID() ID       { return idHuffman }

const (
	huffBlockSize = 1 << 17
	huffMaxLen    = 12
	// huffMaxAlphabet bounds every alphabet coded through this machinery:
	// 256 byte values here, 256+brNumLenSlot symbols for brotli.
	huffMaxAlphabet = 280
)

func (huffmanCodec) Compress(dst, src []byte) ([]byte, error) {
	for len(src) > 0 {
		n := len(src)
		if n > huffBlockSize {
			n = huffBlockSize
		}
		dst = huffCompressBlock(dst, src[:n])
		src = src[n:]
	}
	return dst, nil
}

func huffCompressBlock(dst, src []byte) []byte {
	var freq [256]int
	for _, b := range src {
		freq[b]++
	}
	var lengths [256]uint8
	buildCodeLengths(lengths[:], freq[:], huffMaxLen)
	var codes [256]uint32
	canonicalCodes(codes[:], lengths[:])

	hdr := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // rawLen, compLen placeholders
	binary.LittleEndian.PutUint32(dst[hdr:], uint32(len(src)))

	payloadStart := len(dst)
	// Nibble-packed code lengths.
	for i := 0; i < 256; i += 2 {
		dst = append(dst, lengths[i]|lengths[i+1]<<4)
	}
	var w bits.Writer
	w.Reset(dst)
	for _, b := range src {
		w.WriteBits(uint64(codes[b]), uint(lengths[b]))
	}
	dst = w.Bytes()

	if len(dst)-payloadStart >= len(src) {
		// Entropy coding expanded the block: store raw.
		dst = append(dst[:payloadStart], src...)
		binary.LittleEndian.PutUint32(dst[hdr+4:], uint32(len(src)))
		return dst
	}
	binary.LittleEndian.PutUint32(dst[hdr+4:], uint32(len(dst)-payloadStart))
	return dst
}

func (huffmanCodec) Decompress(dst, src []byte, srcLen int) ([]byte, error) {
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
		dst, err = huffDecompressBlock(dst, src[:compLen], rawLen)
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

func huffDecompressBlock(dst, payload []byte, rawLen int) ([]byte, error) {
	if len(payload) == rawLen {
		return append(dst, payload...), nil // stored raw
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
	if err := buildPairDecodeTable(table[:], lengths[:], huffMaxLen); err != nil {
		return nil, err
	}
	// The bitstream is managed inline (the LSB-first layout
	// bits.Writer packs) so the per-symbol loop runs without function calls:
	// one bulk refill plus one table probe yields up to two symbols.
	bs := payload[128:]
	var acc uint64
	var nacc uint
	pos := 0
	for i := 0; i < rawLen; {
		if nacc < 2*huffMaxLen {
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
		e := table[acc&(1<<huffMaxLen-1)]
		if e&huffPairFlag != 0 && i+2 <= rawLen {
			// Fast path: two symbols resolved by one probe.
			l := uint(e & 31)
			if nacc >= l {
				acc >>= l
				nacc -= l
				dst = append(dst, byte(e>>6), byte(e>>16))
				i += 2
				continue
			}
		}
		l := uint(e >> 26)
		if l == 0 || nacc < l {
			return nil, fmt.Errorf("%w: huffman invalid code", errCorrupt)
		}
		acc >>= l
		nacc -= l
		dst = append(dst, byte(e>>6))
		i++
	}
	return dst, nil
}

// buildCodeLengths computes length-limited Huffman code lengths for the
// given symbol frequencies into lengths (len(lengths) == len(freq), at most
// huffMaxAlphabet). Lengths never exceed maxLen; symbols with zero
// frequency get length 0. The construction builds optimal Huffman depths,
// clamps them to maxLen, repairs the Kraft sum, and assigns shorter codes
// to more frequent symbols (ties broken by symbol order).
func buildCodeLengths(lengths []uint8, freq []int, maxLen int) {
	for i := range lengths {
		lengths[i] = 0
	}
	// Used symbols as packed sort keys: frequency in the high bits, symbol
	// index in the low 10, so one flat sort orders by (freq, symbol).
	var keys [huffMaxAlphabet]uint64
	nu := 0
	for s, f := range freq {
		if f > 0 {
			keys[nu] = uint64(f)<<10 | uint64(s)
			nu++
		}
	}
	switch nu {
	case 0:
		return
	case 1:
		lengths[keys[0]&0x3FF] = 1
		return
	}
	slices.Sort(keys[:nu])

	// Two-queue Huffman merge over the sorted leaves: O(n).
	type hnode struct {
		f           int32
		left, right int16 // node indices, -1 for leaf
		depth       int16
	}
	var nodes [2 * huffMaxAlphabet]hnode
	for i := 0; i < nu; i++ {
		nodes[i] = hnode{f: int32(keys[i] >> 10), left: -1, right: -1}
	}
	nn := nu
	leafQ, innerQ := 0, nu
	innerEnd := nu
	for leafQ < nu || innerEnd-innerQ > 1 {
		var a, b int
		if leafQ < nu && (innerQ >= innerEnd || nodes[leafQ].f <= nodes[innerQ].f) {
			a = leafQ
			leafQ++
		} else {
			a = innerQ
			innerQ++
		}
		if leafQ < nu && (innerQ >= innerEnd || nodes[leafQ].f <= nodes[innerQ].f) {
			b = leafQ
			leafQ++
		} else {
			b = innerQ
			innerQ++
		}
		nodes[nn] = hnode{f: nodes[a].f + nodes[b].f, left: int16(a), right: int16(b)}
		nn++
		innerEnd = nn
	}
	// DFS to assign depths.
	root := nn - 1
	var stack [2 * huffMaxAlphabet]int16
	stack[0] = int16(root)
	sp := 1
	nodes[root].depth = 0
	var numAtLen [64]int
	for sp > 0 {
		sp--
		i := stack[sp]
		n := nodes[i]
		if n.left < 0 {
			d := n.depth
			if d == 0 {
				d = 1
			}
			numAtLen[d]++
			continue
		}
		nodes[n.left].depth = n.depth + 1
		nodes[n.right].depth = n.depth + 1
		stack[sp] = n.left
		stack[sp+1] = n.right
		sp += 2
	}
	// Clamp depths beyond maxLen into maxLen, then repair the Kraft sum.
	var counts [64]int
	for d := 1; d < len(numAtLen); d++ {
		if d <= maxLen {
			counts[d] += numAtLen[d]
		} else {
			counts[maxLen] += numAtLen[d]
		}
	}
	total := 0
	for d := 1; d <= maxLen; d++ {
		total += counts[d] << (maxLen - d)
	}
	for total > 1<<maxLen {
		counts[maxLen]--
		for d := maxLen - 1; d > 0; d-- {
			if counts[d] > 0 {
				counts[d]--
				counts[d+1] += 2
				break
			}
		}
		total--
	}
	// Assign: most frequent symbol gets the shortest length.
	idx := nu - 1
	for d := 1; d <= maxLen; d++ {
		for k := 0; k < counts[d]; k++ {
			lengths[keys[idx]&0x3FF] = uint8(d)
			idx--
		}
	}
}

// canonicalCodes derives LSB-first (bit-reversed) canonical codes from code
// lengths into codes (len(codes) == len(lengths)), DEFLATE-style.
func canonicalCodes(codes []uint32, lengths []uint8) {
	maxLen := 0
	var blCount [64]int
	for _, l := range lengths {
		blCount[l]++
		if int(l) > maxLen {
			maxLen = int(l)
		}
	}
	var nextCode [64]uint32
	code := uint32(0)
	blCount[0] = 0
	for l := 1; l <= maxLen; l++ {
		code = (code + uint32(blCount[l-1])) << 1
		nextCode[l] = code
	}
	for s, l := range lengths {
		codes[s] = 0
		if l == 0 {
			continue
		}
		codes[s] = reverseBits(nextCode[l], int(l))
		nextCode[l]++
	}
}

func reverseBits(v uint32, n int) uint32 {
	var r uint32
	for i := 0; i < n; i++ {
		r = r<<1 | v&1
		v >>= 1
	}
	return r
}

// buildDecodeTable fills a single-level decode table of 1<<maxLen entries.
// Each entry packs symbol<<4 | codeLength; zero-length entries mark invalid
// codes. table must arrive zeroed (a fresh stack array qualifies).
func buildDecodeTable(table []uint32, lengths []uint8, maxLen int) error {
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

// huffPairFlag marks a pair-table entry that resolves two symbols.
const huffPairFlag = 1 << 5

// buildPairDecodeTable fills a decode table of 1<<maxLen entries where each
// probe resolves up to TWO symbols: whenever the first code in the window
// leaves enough bits for the following code to complete, both are baked into
// the entry. Layout (32 bits):
//
//	bits 0..4   total consumed length (l1, or l1+l2 when paired)
//	bit  5      pair flag (huffPairFlag)
//	bits 6..15  first symbol
//	bits 16..25 second symbol (pair entries only)
//	bits 26..30 l1 alone — the fallback length when the pair cannot be
//	            taken (output or bitstream about to end)
//
// Zero entries mark invalid codes. table must arrive zeroed.
func buildPairDecodeTable(table []uint32, lengths []uint8, maxLen int) error {
	if err := buildDecodeTable(table, lengths, maxLen); err != nil {
		return err
	}
	// Rewrite in place, high index to low: i>>l1 < i for l1 >= 1, so the
	// second-symbol probe below always reads a not-yet-rewritten
	// single-symbol entry.
	for i := len(table) - 1; i >= 0; i-- {
		e1 := table[i]
		l1 := e1 & 0x0F
		if l1 == 0 {
			table[i] = 0
			continue
		}
		ne := l1 | (e1>>4)<<6 | l1<<26
		e2 := table[i>>l1]
		// Pairs are restricted to byte-valued symbols so decoders can emit
		// both with plain byte() truncation (brotli's alphabet runs past
		// 255; its length slots must take the single-symbol path anyway).
		if l2 := e2 & 0x0F; l2 != 0 && l1+l2 <= uint32(maxLen) && e1>>4 < 256 && e2>>4 < 256 {
			ne = (l1 + l2) | huffPairFlag | (e1>>4)<<6 | (e2>>4)<<16 | l1<<26
		}
		table[i] = ne
	}
	return nil
}
