package codec

import (
	"encoding/binary"
	"fmt"

	"hcompress/internal/bufpool"
)

// bzip2Codec is the from-scratch block-sorting compressor: BWT (suffix
// array) -> move-to-front -> zero-run-length -> canonical Huffman. It is
// slow and achieves high ratios on text-like data, while — exactly as the
// paper observes for VPIC output — it can barely compress high-entropy
// float data, making it the codec the HCDP engine must learn to avoid.
//
// Block format (blocks of bz2BlockSize):
//
//	u32 LE rawLen, u32 LE ptr (0xFFFFFFFF = stored raw), u32 LE rleLen,
//	u32 LE compLen, then the huffman-framed payload of rleLen bytes.
type bzip2Codec struct{}

func (bzip2Codec) Name() string { return "bzip2" }
func (bzip2Codec) ID() ID       { return idBzip2 }

const (
	bz2BlockSize = 1 << 18
	bwtRawMarker = 0xFFFFFFFF
)

func (c bzip2Codec) Compress(dst, src []byte) ([]byte, error) {
	s := bufpool.GetScratch()
	defer bufpool.PutScratch(s)
	return c.CompressScratch(s, dst, src)
}

func (c bzip2Codec) Decompress(dst, src []byte, srcLen int) ([]byte, error) {
	s := bufpool.GetScratch()
	defer bufpool.PutScratch(s)
	return c.DecompressScratch(s, dst, src, srcLen)
}

func (bzip2Codec) CompressScratch(s *bufpool.Scratch, dst, src []byte) ([]byte, error) {
	return bwtPipelineCompress(s, dst, src, bz2BlockSize, huffEntropy{})
}

func (bzip2Codec) DecompressScratch(s *bufpool.Scratch, dst, src []byte, srcLen int) ([]byte, error) {
	return bwtPipelineDecompress(s, dst, src, srcLen, bz2BlockSize, huffEntropy{}, "bzip2")
}

// entropyStage abstracts the final entropy coder of the BWT pipeline so
// bzip2 (Huffman) and bsc (adaptive range coder) share the block framing.
// Stages draw work buffers from s; they must not touch the Scratch fields
// the pipeline itself uses (BWT, MTF, RLE, LF, SA and Bkt).
type entropyStage interface {
	encode(s *bufpool.Scratch, dst, src []byte) []byte
	decode(s *bufpool.Scratch, dst, src []byte, rawLen int) ([]byte, error)
}

type huffEntropy struct{}

func (huffEntropy) encode(s *bufpool.Scratch, dst, src []byte) []byte {
	out, _ := huffmanCodec{}.Compress(dst, src) // never fails; stack tables only
	return out
}

func (huffEntropy) decode(s *bufpool.Scratch, dst, src []byte, rawLen int) ([]byte, error) {
	return huffmanCodec{}.Decompress(dst, src, rawLen)
}

func bwtPipelineCompress(s *bufpool.Scratch, dst, src []byte, blockSize int, ent entropyStage) ([]byte, error) {
	for len(src) > 0 {
		n := len(src)
		if n > blockSize {
			n = blockSize
		}
		dst = bwtCompressBlock(s, dst, src[:n], ent)
		src = src[n:]
	}
	return dst, nil
}

func bwtCompressBlock(s *bufpool.Scratch, dst, block []byte, ent entropyStage) []byte {
	mtf, ptr := bwtForwardMTF(s, block) // fused BWT+MTF into s.BWT
	rle := rle0Encode(s, mtf)

	hdr := len(dst)
	dst = extendSlice(dst, 16)
	binary.LittleEndian.PutUint32(dst[hdr:], uint32(len(block)))
	payloadStart := len(dst)
	dst = ent.encode(s, dst, rle)

	if len(dst)-payloadStart >= len(block) {
		dst = append(dst[:payloadStart], block...)
		binary.LittleEndian.PutUint32(dst[hdr+4:], bwtRawMarker)
		binary.LittleEndian.PutUint32(dst[hdr+8:], 0)
		binary.LittleEndian.PutUint32(dst[hdr+12:], uint32(len(block)))
		return dst
	}
	binary.LittleEndian.PutUint32(dst[hdr+4:], uint32(ptr))
	binary.LittleEndian.PutUint32(dst[hdr+8:], uint32(len(rle)))
	binary.LittleEndian.PutUint32(dst[hdr+12:], uint32(len(dst)-payloadStart))
	return dst
}

func bwtPipelineDecompress(s *bufpool.Scratch, dst, src []byte, srcLen, blockSize int, ent entropyStage, name string) ([]byte, error) {
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
		// rleLen is bounded by 2x the block: RLE0 expands a lone zero to two
		// bytes and never expands anything else. Guarding it keeps corrupt
		// headers from driving a huge scratch-buffer grow below.
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
		rle, err := ent.decode(s, bufpool.GrowBytes(&s.RLE, rleLen)[:0], src[:compLen], rleLen)
		if err != nil {
			return nil, err
		}
		src = src[compLen:]
		mtf, err := rle0Decode(s, rle, rawLen)
		if err != nil {
			return nil, fmt.Errorf("%w: %s rle0", errCorrupt, name)
		}
		dst, err = bwtInverseMTF(s, dst, mtf, int(ptr))
		if err != nil {
			return nil, fmt.Errorf("%w: %s inverse bwt", errCorrupt, name)
		}
	}
	if len(dst)-base != srcLen {
		return nil, fmt.Errorf("%w: %s produced %d bytes, want %d", errCorrupt, name, len(dst)-base, srcLen)
	}
	return dst, nil
}
