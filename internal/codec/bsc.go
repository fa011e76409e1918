package codec

import "hcompress/internal/bufpool"

// bscCodec is the pool's slowest / highest-ratio block sorter: the same
// BWT -> MTF -> RLE0 front end as bzip2, but with a larger block and an
// order-1-context adaptive binary range coder instead of static Huffman.
// It models libbsc's position in the paper: best ratio on compressible
// data, worst compression speed.
type bscCodec struct{}

func (bscCodec) Name() string { return "bsc" }
func (bscCodec) ID() ID       { return idBSC }

const bscBlockSize = 1 << 20

func (c bscCodec) Compress(dst, src []byte) ([]byte, error) {
	s := bufpool.GetScratch()
	defer bufpool.PutScratch(s)
	return c.CompressScratch(s, dst, src)
}

func (c bscCodec) Decompress(dst, src []byte, srcLen int) ([]byte, error) {
	s := bufpool.GetScratch()
	defer bufpool.PutScratch(s)
	return c.DecompressScratch(s, dst, src, srcLen)
}

func (bscCodec) CompressScratch(s *bufpool.Scratch, dst, src []byte) ([]byte, error) {
	return bwtPipelineCompress(s, dst, src, bscBlockSize, rcEntropy{})
}

func (bscCodec) DecompressScratch(s *bufpool.Scratch, dst, src []byte, srcLen int) ([]byte, error) {
	return bwtPipelineDecompress(s, dst, src, srcLen, bscBlockSize, rcEntropy{}, "bsc")
}

// rcEntropy codes a byte stream through per-context 8-bit probability
// trees. The context is a coarse class of the previous byte — after BWT+MTF
// the value magnitude is strongly autocorrelated, so four classes capture
// most of the conditional entropy at a fraction of an order-1 model's
// table size. Probabilities live in the Scratch slab; the coder itself is
// a stack value.
type rcEntropy struct{}

func byteClass(b byte) int {
	switch {
	case b == 0:
		return 0
	case b == 1:
		return 1
	case b < 16:
		return 2
	default:
		return 3
	}
}

// byteClassTab is byteClass as a lookup table for the per-byte coding loops.
var byteClassTab = func() (t [256]uint8) {
	for i := range t {
		t[i] = uint8(byteClass(byte(i)))
	}
	return
}()

func (rcEntropy) encode(s *bufpool.Scratch, dst, src []byte) []byte {
	var e rcEncoder
	e.init(dst)
	probs := bufpool.GrowU16(&s.Probs, 4*256)
	initProbs(probs)
	ctx := 0
	for _, b := range src {
		e.encodeTree(probs[ctx*256:(ctx+1)*256], uint32(b), 8)
		ctx = int(byteClassTab[b])
	}
	return e.flush()
}

func (rcEntropy) decode(s *bufpool.Scratch, dst, src []byte, rawLen int) ([]byte, error) {
	var d rcDecoder
	d.init(src)
	probs := bufpool.GrowU16(&s.Probs, 4*256)
	initProbs(probs)
	ctx := 0
	base := len(dst)
	dst = extendSlice(dst, rawLen)
	out := dst[base:]
	for i := 0; i < rawLen; i++ {
		b := byte(d.decodeTree(probs[ctx*256:(ctx+1)*256], 8))
		out[i] = b
		ctx = int(byteClassTab[b])
	}
	if d.overran() {
		return nil, errCorrupt
	}
	return dst, nil
}
