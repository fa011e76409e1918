package codec

import (
	"fmt"
	"testing"
	"time"

	"hcompress/internal/bufpool"
	"hcompress/internal/stats"
)

// bwtClasses are the inputs the BWT compress side is sized on: the five
// (type, distribution) classes bench/corpus.go writes, generated the way
// it generates them for seed 1, plus the two degenerate shapes a suffix
// sorter's worst case shows on.
var bwtClasses = []struct {
	name string
	gen  func(n int) []byte
}{
	{"float-gamma", benchClass(0, stats.TypeFloat, stats.Gamma)},
	{"int-normal", benchClass(1, stats.TypeInt, stats.Normal)},
	{"text-uniform", benchClass(2, stats.TypeText, stats.Uniform)},
	{"binary-exp", benchClass(3, stats.TypeBinary, stats.Exponential)},
	{"float-normal", benchClass(4, stats.TypeFloat, stats.Normal)},
	{"zeros", func(n int) []byte { return make([]byte, n) }},
	{"period67", func(n int) []byte { return periodic(n, 67) }},
}

var bwtSizes = []struct {
	name string
	n    int
}{{"4K", 4 << 10}, {"16K", 16 << 10}, {"64K", 64 << 10}, {"256K", 256 << 10}, {"1M", 1 << 20}}

func benchClass(class int, typ stats.DataType, dist stats.Dist) func(int) []byte {
	return func(n int) []byte {
		return stats.GenBuffer(typ, dist, n, 1*1_000_003+int64(class)*101)
	}
}

// periodic repeats a p-byte pattern of distinct, non-monotone bytes.
func periodic(n, p int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte((i%p)*37 + 11)
	}
	return out
}

// BenchmarkBWTCompress times one CompressWith per iteration for the two
// BWT codecs over every class and size, and reports where the time went:
// a second, untimed pass runs the block pipeline stage by stage
// (sa_us suffix sort, mtf_us fused BWT+MTF emit, rle_us, ent_us entropy
// coder; per first block, so bzip2 at 1M shows one of its four blocks).
func BenchmarkBWTCompress(b *testing.B) {
	s := new(bufpool.Scratch)
	for _, cfg := range []struct {
		name  string
		block int
		ent   entropyStage
	}{
		{"bzip2", bz2BlockSize, huffEntropy{}},
		{"bsc", bscBlockSize, rcEntropy{}},
	} {
		c, err := ByName(cfg.name)
		if err != nil {
			b.Fatal(err)
		}
		for _, class := range bwtClasses {
			for _, size := range bwtSizes {
				src := class.gen(size.n)
				b.Run(fmt.Sprintf("%s/%s/%s", cfg.name, class.name, size.name), func(b *testing.B) {
					dst, _ := CompressWith(s, c, nil, src) // warm the Scratch
					b.SetBytes(int64(len(src)))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						dst, _ = CompressWith(s, c, dst[:0], src)
					}
					b.StopTimer()
					block := src[:min(len(src), cfg.block)]
					var sa, mtf, rle, ent time.Duration
					for i := 0; i < b.N; i++ {
						t0 := time.Now()
						a := suffixArray(s, block)
						t1 := time.Now()
						m, _ := bwtEmitMTF(s, block, a)
						t2 := time.Now()
						r := rle0Encode(s, m)
						t3 := time.Now()
						dst = cfg.ent.encode(s, dst[:0], r)
						t4 := time.Now()
						sa += t1.Sub(t0)
						mtf += t2.Sub(t1)
						rle += t3.Sub(t2)
						ent += t4.Sub(t3)
					}
					us := func(d time.Duration) float64 { return float64(d.Microseconds()) / float64(b.N) }
					b.ReportMetric(us(sa), "sa_us")
					b.ReportMetric(us(mtf), "mtf_us")
					b.ReportMetric(us(rle), "rle_us")
					b.ReportMetric(us(ent), "ent_us")
				})
			}
		}
	}
}
