package bufpool

import "sync"

// Scratch owns every reusable work buffer a codec needs, so a worker that
// keeps one Scratch across calls runs the whole codec suite without
// per-call allocation. Fields are grouped by the stage that uses them;
// one Scratch must not be shared by concurrent calls. The zero value is
// ready to use — buffers grow on first use and are retained at their
// high-water mark.
//
// Codecs must leave no state behind between calls beyond buffer capacity:
// every field is length-reset (and re-initialized where contents matter)
// by the call that uses it, which the codec round-trip tests verify by
// interleaving codecs over one shared Scratch.
type Scratch struct {
	// Comp and Dec are the compress- and decompress-destination buffers
	// the Compression Manager hands to codec calls.
	Comp []byte
	Dec  []byte

	// BWT/suffix-array stage (bzip2, bsc). The suffix sorter recurses
	// inside SA itself; Bkt is touched only by an input whose reduced
	// problem leaves no room there for its buckets (at most len(SA)/2).
	SA  []int32 // suffix array
	Bkt []int32 // suffix-sort buckets that did not fit in SA
	LF  []int32 // inverse-BWT LF mapping
	BWT []byte  // forward transform output
	MTF []byte  // move-to-front output
	RLE []byte  // zero-run-length output

	// LZ match-search stage (lz4, lzma, lzo, brotli, snappy, pithy, quicklz).
	Head []int32 // hash-table heads
	Prev []int32 // hash-chain links

	// Entropy stage: range-coder probability slab (bsc, lzma) and the
	// brotli token buffer.
	Probs  []uint16
	Tokens []uint64
}

// scratchPool serves the compatibility path: codecs invoked through the
// plain Codec interface (no caller-owned Scratch) borrow one here.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch borrows a Scratch from the process-wide pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a Scratch obtained from GetScratch.
func PutScratch(s *Scratch) { scratchPool.Put(s) }

// GrowBytes returns (*buf)[:n], reallocating when capacity is short.
// Contents are unspecified.
func GrowBytes(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	return (*buf)[:n]
}

// GrowI32 returns (*buf)[:n] with unspecified contents.
func GrowI32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	return (*buf)[:n]
}

// GrowU16 returns (*buf)[:n] with unspecified contents.
func GrowU16(buf *[]uint16, n int) []uint16 {
	if cap(*buf) < n {
		*buf = make([]uint16, n)
	}
	return (*buf)[:n]
}
