package analyzer

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"hcompress/internal/stats"
)

// updateGolden regenerates testdata/verdicts.golden from the REFERENCE
// implementation (reference_test.go), never from the live analyzer:
//
//	go test ./internal/analyzer -run TestGoldenVerdicts -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/verdicts.golden from the reference analyzer")

const goldenPath = "testdata/verdicts.golden"

var goldenSizes = []int{0, 1, 3, 4, 7, 100, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1<<20 + 3}

// benchClasses and benchBuffer reproduce bench/corpus.go's inputs (the
// five data classes, eight variants each, seeded per size slot), so the
// golden file pins the verdicts the benchmark's plans depend on.
var benchClasses = []struct {
	typ  stats.DataType
	dist stats.Dist
}{
	{stats.TypeFloat, stats.Gamma},
	{stats.TypeInt, stats.Normal},
	{stats.TypeText, stats.Uniform},
	{stats.TypeBinary, stats.Exponential},
	{stats.TypeFloat, stats.Normal},
}

// forEachGolden walks the pinned corpus in file order: the GenBuffer grid
// (4 types x 4 dists x 11 sizes x 4 seeds), then the benchmark corpus for
// seeds 1 and 2 under both size layouts the workloads use. maxSize < 0
// means no limit; callers that only want small inputs pass a cap.
func forEachGolden(maxSize int, fn func(name string, buf []byte)) {
	keep := func(size int) bool { return maxSize < 0 || size <= maxSize }
	for _, ty := range stats.AllTypes() {
		for _, d := range stats.AllDists() {
			for _, size := range goldenSizes {
				for seed := int64(1); seed <= 4 && keep(size); seed++ {
					fn(fmt.Sprintf("gen/%v/%v/%d/%d", ty, d, size, seed), stats.GenBuffer(ty, d, size, seed))
				}
			}
		}
	}
	layouts := [][]int{{64 << 10}, {16 << 10, 64 << 10, 256 << 10}}
	for seed := int64(1); seed <= 2; seed++ {
		for li, sizes := range layouts {
			for si, size := range sizes {
				for content := 0; content < 5*8 && keep(size); content++ {
					class, variant := content%5, content/5
					dc := benchClasses[class]
					bseed := seed*1_000_003 + int64(si)*10_007 + int64(class)*101 + int64(variant)
					fn(fmt.Sprintf("bench/seed%d/layout%d/%d/class%d/variant%d", seed, li, size, class, variant),
						stats.GenBuffer(dc.typ, dc.dist, size, bseed))
				}
			}
		}
	}
}

func verdictLine(name string, r Result) string {
	return fmt.Sprintf("%s %v %v %v", name, r.Type, r.Dist, r.Format)
}

// TestGoldenVerdicts holds the live analyzer to the verdicts the
// reference produced when the golden file was cut.
func TestGoldenVerdicts(t *testing.T) {
	if *updateGolden {
		var sb strings.Builder
		forEachGolden(-1, func(name string, buf []byte) {
			sb.WriteString(verdictLine(name, refAnalyze(buf)))
			sb.WriteByte('\n')
		})
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lines := 0
	forEachGolden(-1, func(name string, buf []byte) {
		if !sc.Scan() {
			t.Fatalf("golden file ends before %s", name)
		}
		lines++
		if got, want := verdictLine(name, Analyze(buf)), sc.Text(); got != want {
			t.Errorf("verdict changed:\n got  %s\n want %s", got, want)
		}
	})
	if sc.Scan() {
		t.Errorf("golden file has entries past line %d: %q", lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

// checkAgainstReference fails when the live analyzer and the reference
// disagree on buf.
func checkAgainstReference(t testing.TB, what string, buf []byte) {
	t.Helper()
	if got, want := Analyze(buf), refAnalyze(buf); got != want {
		t.Errorf("%s (len %d): analyzer %+v, reference %+v", what, len(buf), got, want)
	}
}

// Word pools for the structured inputs. Each is pure in one of
// detectType's two tests so mixes land the counts where we aim them.
var (
	// Neither float-like nor int-like: positive NaNs and +Inf (negative
	// ones are small negative ints), and magnitudes outside (1e-20, 1e20).
	junkWords = []uint32{0x7F800000, 0x7FC00000, 0x7F800001, 0x7FFFFFFF, math.Float32bits(1e30), math.Float32bits(-1e30), math.Float32bits(1e-30)}
	// Float-like only: ordinary magnitudes whose int32 view is huge.
	floatWords = []uint32{math.Float32bits(1.5), math.Float32bits(-273.15), math.Float32bits(6.02e19), math.Float32bits(-3e-19), math.Float32bits(1000)}
	// Int-like only: small nonzero ints (denormal as floats).
	intWords = []uint32{1, 7, 1000, 1<<26 - 1, uint32(0xFFFFFFFF), uint32(1<<32 - (1<<26 - 1)), 65536}
	// Both at once: +0 (-0 is float-like only; as int32 it is the minimum).
	zeroWord = uint32(0)
)

// boundaryWords returns every bit pattern within ±2 ulp of the two float
// bounds (1e-20 and 1e20, found here by search, not taken from the
// analyzer), both signs, plus the ints straddling ±2^26, ±0, denormals,
// Inf and NaN.
func boundaryWords() []uint32 {
	val := func(p uint32) float64 { return float64(math.Float32frombits(p)) }
	var lo, hi uint32
	for p := uint32(0); ; p++ { // first pattern above 1e-20
		if val(p) > 1e-20 {
			lo = p
			break
		}
	}
	for p := uint32(0x7F800000); ; p-- { // last pattern below 1e20
		if val(p) < 1e20 {
			hi = p
			break
		}
	}
	var ws []uint32
	for d := -2; d <= 2; d++ {
		for _, base := range []uint32{lo, hi} {
			w := uint32(int64(base) + int64(d))
			ws = append(ws, w, w|1<<31)
		}
		for _, base := range []int32{1 << 26, -(1 << 26)} {
			ws = append(ws, uint32(base+int32(d)))
		}
	}
	return append(ws, 0, 1<<31, 1, 0x007FFFFF, 0x807FFFFF, 0x00800000, 0x7F800000, 0xFF800000, 0x7FC00000, 0x7F7FFFFF)
}

func pick(rng *rand.Rand, pool []uint32) uint32 { return pool[rng.Intn(len(pool))] }

// wordBuffer lays out n words drawn per the given counts (shuffled), and
// appends tail extra bytes so lengths are not always word multiples.
func wordBuffer(rng *rand.Rand, n, tail int, draw func(i int) uint32) []byte {
	words := make([]uint32, n)
	for i := range words {
		words[i] = draw(i)
	}
	rng.Shuffle(n, func(i, j int) { words[i], words[j] = words[j], words[i] })
	buf := make([]byte, 0, 4*n+tail)
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint32(buf, w)
	}
	for i := 0; i < tail; i++ {
		buf = append(buf, byte(rng.Intn(256)))
	}
	return buf
}

// randLen draws a length in [0, 200000], weighted so tiny buffers, the
// contiguous branch and the strided branch (> 64 KiB) all come up.
func randLen(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return rng.Intn(64)
	case 1:
		return rng.Intn(8 << 10)
	case 2:
		return 60<<10 + rng.Intn(12<<10) // straddles maxScanBytes
	default:
		return rng.Intn(200001)
	}
}

// textBuffer builds n bytes of prose with the given per-byte chances of
// an unprintable byte, a comma and a newline.
func textBuffer(rng *rand.Rand, n int, pBad, pComma, pNewline float64) []byte {
	buf := make([]byte, n)
	for i := range buf {
		switch r := rng.Float64(); {
		case r < pBad:
			buf[i] = []byte{0x00, 0x01, 0x1F, 0x7F, 0x80, 0xFF, 0x0B}[rng.Intn(7)]
		case r < pBad+pComma:
			buf[i] = ','
		case r < pBad+pComma+pNewline:
			buf[i] = '\n'
		default:
			buf[i] = byte(0x20 + rng.Intn(0x7F-0x20))
		}
	}
	return buf
}

// TestAnalyzeMatchesReference is the differential check behind the
// rewrite's "same verdict for every input" contract: structured random
// inputs aimed at every comparison the analyzer makes.
func TestAnalyzeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	edges := boundaryWords()

	t.Run("golden-corpus", func(t *testing.T) {
		forEachGolden(-1, func(name string, buf []byte) { checkAgainstReference(t, name, buf) })
	})

	t.Run("boundary-words", func(t *testing.T) {
		// Every edge word alone (n=1 makes its test decide the verdict),
		// then random mixes of edge words with each pure pool.
		for _, w := range edges {
			checkAgainstReference(t, fmt.Sprintf("word %#08x", w), binary.LittleEndian.AppendUint32(nil, w))
		}
		for i := 0; i < 400; i++ {
			n := randLen(rng) / 4
			pEdge := rng.Float64()
			fill := [][]uint32{junkWords, floatWords, intWords}[rng.Intn(3)]
			buf := wordBuffer(rng, n, rng.Intn(4), func(int) uint32 {
				if rng.Float64() < pEdge {
					return pick(rng, edges)
				}
				return pick(rng, fill)
			})
			checkAgainstReference(t, "edge mix", buf)
		}
	})

	t.Run("threshold-mixes", func(t *testing.T) {
		// Exact counts around the 0.95 and 0.80 cuts, for the int test,
		// the float test, and both at once (zeros count for both, so
		// fi >= ff ties and near-ties happen).
		for i := 0; i < 600; i++ {
			n := 1 + randLen(rng)/4
			around := []float64{0.80, 0.95}[rng.Intn(2)]
			frac := func() float64 { return around + (rng.Float64()-0.5)*0.04 } // ±2 %
			exact := func() int { return int(math.Round(around*float64(n))) + rng.Intn(5) - 2 }
			var nInt, nFloat, nZero int
			switch rng.Intn(4) {
			case 0:
				nInt = int(frac() * float64(n))
			case 1:
				nFloat = int(frac() * float64(n))
			case 2:
				nInt = exact()
				nFloat = rng.Intn(n/10 + 1)
			default:
				nZero = rng.Intn(n + 1)
				nInt = max(0, exact()-nZero)
				nFloat = max(0, exact()-nZero+rng.Intn(3)-1)
			}
			buf := wordBuffer(rng, n, rng.Intn(4), func(i int) uint32 {
				switch {
				case i < nZero:
					return zeroWord
				case i < nZero+nInt:
					return pick(rng, intWords)
				case i < nZero+nInt+nFloat:
					return pick(rng, floatWords)
				default:
					return pick(rng, junkWords)
				}
			})
			checkAgainstReference(t, "threshold mix", buf)
		}
	})

	t.Run("exact-counts", func(t *testing.T) {
		// Sampled positions filled with exact counts, so fi and ff land
		// on, just under and just over each cut: ties between the two
		// fractions (zeros count for both), and word counts that are not
		// a multiple of the stride, where an off-by-one in the sample
		// total would flip the verdict.
		for _, words := range []int{1, 5, 10, 20, 40, 100, 1000, 16384, 16385, 20001, 40003, 49999} {
			step := wordStride(4*words) / 4
			total := (words-1)/step + 1
			for _, cut := range []float64{0.80, 0.95} {
				for d := -1; d <= 1; d++ {
					c := int(math.Ceil(cut*float64(total))) + d
					if c < 0 || c > total {
						continue
					}
					for _, split := range [][3]int{{c, 0, 0}, {0, c, 0}, {0, 0, c}, {1, 1, c - 1}, {0, 1, c - 1}, {1, 0, c - 1}} {
						nInt, nFloat, nZero := split[0], split[1], split[2]
						if nZero < 0 || nInt+nFloat+nZero > total {
							continue
						}
						buf := make([]byte, 0, 4*words)
						for i := 0; i < words; i++ {
							w := pick(rng, junkWords)
							if k := i / step; i%step == 0 {
								switch {
								case k < nZero:
									w = zeroWord
								case k < nZero+nInt:
									w = pick(rng, intWords)
								case k < nZero+nInt+nFloat:
									w = pick(rng, floatWords)
								}
							}
							buf = binary.LittleEndian.AppendUint32(buf, w)
						}
						checkAgainstReference(t, fmt.Sprintf("exact %d words, %d/%d/%d of %d", words, nInt, nFloat, nZero, total), buf)
					}
				}
			}
		}
	})

	t.Run("text", func(t *testing.T) {
		// 0-12 % unprintable bytes straddles printableFrac = 0.92; comma
		// and newline densities straddle commas >= 2*newlines; prefixes
		// exercise the JSON sniff and the container magic.
		prefixes := []string{"", "", "{", "  [", "\t\n {", " x{", "H5LT", "H5L", strings.Repeat(" ", 64) + "{", strings.Repeat(" ", 63) + "["}
		for i := 0; i < 500; i++ {
			n := randLen(rng)
			pBad := rng.Float64() * 0.12
			pNewline := rng.Float64() * 0.05
			pComma := pNewline * (1 + 2*rng.Float64()) // ratio in [1, 3)
			if rng.Intn(8) == 0 {
				pNewline = 3.0 / float64(n+1) // a couple of lines only
			}
			buf := textBuffer(rng, n, pBad, pComma, pNewline)
			copy(buf, prefixes[rng.Intn(len(prefixes))])
			checkAgainstReference(t, "text", buf)
		}
	})

	t.Run("random-bytes", func(t *testing.T) {
		for i := 0; i < 200; i++ {
			buf := make([]byte, randLen(rng))
			rng.Read(buf)
			checkAgainstReference(t, "random", buf)
		}
	})
}

// TestFloatBoundsMatchWidenedCompare pins the integer float predicate to
// the widened float64 compare it replaces: every exponent with the
// mantissa corners, both signs, and a dense window around both bounds
// (all 2^32 patterns would take too long for tier 1).
func TestFloatBoundsMatchWidenedCompare(t *testing.T) {
	ref := func(v uint32) bool {
		f := float64(math.Float32frombits(v))
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
		a := math.Abs(f)
		return a == 0 || (a > 1e-20 && a < 1e20)
	}
	check := func(v uint32) {
		if f, _ := wordTests(v, floatLo, floatHi-floatLo-1); f>>1 != 0 || (f == 1) != ref(v) {
			t.Fatalf("word %#08x: integer predicate %d, widened compare %v", v, f, ref(v))
		}
	}
	for exp := uint32(0); exp < 256; exp++ {
		for _, man := range []uint32{0, 1, 2, 0x400000, 0x7FFFFE, 0x7FFFFF} {
			check(exp<<23 | man)
			check(1<<31 | exp<<23 | man)
		}
	}
	for _, b := range []uint32{floatLo, floatHi} {
		for d := uint32(0); d < 1<<16; d++ {
			check(b - 1<<15 + d)
			check((b - 1<<15 + d) | 1<<31)
		}
	}
}

// FuzzAnalyzeMatchesReference: for any input the live analyzer and the
// reference agree and neither panics. Seeds are the golden corpus up to
// 64 KiB plus one strided-branch buffer per type.
func FuzzAnalyzeMatchesReference(f *testing.F) {
	forEachGolden(64<<10, func(name string, buf []byte) {
		if strings.HasSuffix(name, "/1") || strings.HasPrefix(name, "bench/seed1/layout0") {
			f.Add(buf)
		}
	})
	for _, ty := range stats.AllTypes() {
		f.Add(stats.GenBuffer(ty, stats.Gamma, 100<<10, 5))
	}
	for _, w := range boundaryWords() {
		f.Add(binary.LittleEndian.AppendUint32(nil, w))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, "fuzz", data)
	})
}
