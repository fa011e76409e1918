package analyzer

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"hcompress/internal/stats"
)

func TestDetectTextType(t *testing.T) {
	buf := stats.GenBuffer(stats.TypeText, stats.Uniform, 1<<16, 1)
	r := Analyze(buf)
	if r.Type != stats.TypeText {
		t.Errorf("text buffer detected as %v", r.Type)
	}
	if r.Size != 1<<16 {
		t.Errorf("size %d", r.Size)
	}
}

func TestDetectFloatType(t *testing.T) {
	for _, d := range stats.AllDists() {
		buf := stats.GenBuffer(stats.TypeFloat, d, 1<<16, int64(d)+10)
		r := Analyze(buf)
		if r.Type != stats.TypeFloat {
			t.Errorf("float/%v detected as %v", d, r.Type)
		}
	}
}

func TestDetectIntType(t *testing.T) {
	for _, d := range stats.AllDists() {
		buf := stats.GenBuffer(stats.TypeInt, d, 1<<16, int64(d)+20)
		r := Analyze(buf)
		if r.Type != stats.TypeInt {
			t.Errorf("int/%v detected as %v", d, r.Type)
		}
	}
}

func TestDetectBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	buf := make([]byte, 1<<16)
	rng.Read(buf)
	r := Analyze(buf)
	if r.Type == stats.TypeText {
		t.Errorf("random bytes detected as text")
	}
	if r.Format != formatRaw {
		t.Errorf("random bytes format %v", r.Format)
	}
}

func TestDetectDistribution(t *testing.T) {
	ok := 0
	total := 0
	for _, d := range stats.AllDists() {
		for trial := 0; trial < 5; trial++ {
			buf := stats.GenBuffer(stats.TypeFloat, d, 1<<17, int64(d)*100+int64(trial))
			total++
			if Analyze(buf).Dist == d {
				ok++
			}
		}
	}
	if ok*10 < total*6 {
		t.Errorf("distribution detection %d/%d", ok, total)
	}
}

func TestDetectCSV(t *testing.T) {
	csv := []byte("a,b,c\n1,2,3\n4,5,6\n7,8,9\n")
	r := Analyze(csv)
	if r.Format != formatCSV {
		t.Errorf("csv detected as %v", r.Format)
	}
	if r.Type != stats.TypeText {
		t.Errorf("csv type %v", r.Type)
	}
}

func TestDetectJSON(t *testing.T) {
	j := []byte(`  {"particles": [1, 2, 3], "timestep": 5, "name": "vpic"}`)
	if got := Analyze(j).Format; got != formatJSON {
		t.Errorf("json detected as %v", got)
	}
	arr := []byte(`[1,2,3,4,5,6,7,8,9,10,11,12]`)
	if got := Analyze(arr).Format; got != formatJSON {
		t.Errorf("json array detected as %v", got)
	}
}

func TestDetectH5Lite(t *testing.T) {
	buf := append([]byte("H5LT"), make([]byte, 100)...)
	if got := Analyze(buf).Format; got != formatH5Lite {
		t.Errorf("h5lite magic detected as %v", got)
	}
}

func TestHintShortCircuits(t *testing.T) {
	// A hint must be trusted even when detection would disagree.
	buf := stats.GenBuffer(stats.TypeText, stats.Uniform, 4096, 3)
	ty := stats.TypeFloat
	di := stats.Gamma
	r := AnalyzeWithHint(buf, &Hint{Type: &ty, Dist: &di})
	if r.Type != stats.TypeFloat || r.Dist != stats.Gamma {
		t.Errorf("hint ignored: %+v", r)
	}
	// Partial hint: type given, dist detected.
	r2 := AnalyzeWithHint(buf, &Hint{Type: &ty})
	if r2.Type != stats.TypeFloat {
		t.Errorf("partial hint ignored")
	}
}

func TestEmptyAndTinyBuffers(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 7} {
		buf := make([]byte, n)
		r := Analyze(buf) // must not panic
		if r.Size != n {
			t.Errorf("n=%d: size %d", n, r.Size)
		}
	}
}

func TestFormatString(t *testing.T) {
	names := map[Format]string{
		formatRaw: "raw", formatH5Lite: "h5lite", formatCSV: "csv", formatJSON: "json",
	}
	for f, want := range names {
		if f.String() != want {
			t.Errorf("%d -> %q want %q", f, f.String(), want)
		}
	}
	if Format(99).String() != "unknown" {
		t.Error("out-of-range format name")
	}
}

func BenchmarkAnalyze1MB(b *testing.B) {
	buf := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 1<<20, 4)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(buf)
	}
}

// BenchmarkAnalyzeCorpus times one unhinted analysis per benchmark data
// class at the benchmark's 64 KiB block size, live analyzer beside the
// reference it replaced; -benchmem shows the live path allocating nothing.
func BenchmarkAnalyzeCorpus(b *testing.B) {
	var bufs [][]byte
	for i, dc := range benchClasses {
		bufs = append(bufs, stats.GenBuffer(dc.typ, dc.dist, 64<<10, int64(i)+1))
	}
	for _, impl := range []struct {
		name string
		fn   func([]byte) Result
	}{{"live", Analyze}, {"reference", refAnalyze}} {
		b.Run(impl.name, func(b *testing.B) {
			b.SetBytes(64 << 10)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = impl.fn(bufs[i%len(bufs)])
			}
		})
	}
}

var benchSink Result

// touchedByDetectType computes, from the stride math alone, how many bytes
// the detectType word loop reads for an n-byte buffer.
func touchedByDetectType(n int) int {
	sample := n &^ 3
	if sample < 4 {
		return sample
	}
	stride := wordStride(sample)
	return 4 * ((sample-4)/stride + 1)
}

// touchedByLooksTextual computes how many byte positions looksTextual visits.
func touchedByLooksTextual(n int) int {
	if n == 0 {
		return 0
	}
	stride := max(1, (n+textSamples-1)/textSamples)
	return (n-1)/stride + 1
}

// touchedByLooksCSV computes how many bytes looksCSV scans.
func touchedByLooksCSV(n int) int {
	const half = maxScanBytes / 2
	t := min(n, half)
	if n > 2*half {
		t += half
	}
	return t
}

// TestScanBudget proves, by stride accounting, that every detector touches
// a fixed budget of bytes regardless of buffer size — up to 1 GiB here
// without allocating anything.
func TestScanBudget(t *testing.T) {
	sizes := []int{0, 1, 3, 4, 100, 4096, 16 << 10, 16<<10 + 4, 64 << 10, 64<<10 + 1,
		1 << 20, 16 << 20, 100 << 20, 1 << 30}
	for _, n := range sizes {
		if got := touchedByDetectType(n); got > 4*typeSamples+4 {
			t.Errorf("detectType touches %d bytes of a %d-byte buffer", got, n)
		}
		if got := touchedByLooksTextual(n); got > textSamples {
			t.Errorf("looksTextual visits %d positions of a %d-byte buffer", got, n)
		}
		if got := touchedByLooksCSV(n); got > maxScanBytes {
			t.Errorf("looksCSV scans %d bytes of a %d-byte buffer", got, n)
		}
	}
	// The budget must also actually be *used* on large buffers: striding
	// across the whole buffer, not a fixed prefix.
	if s := wordStride(1 << 30); s <= 4 {
		t.Errorf("wordStride(1GiB) = %d: large buffers are not strided", s)
	}
}

// fullScanType is detectType without the sample budget: every 32-bit word
// of buf is tested.
func fullScanType(buf []byte) stats.DataType {
	if looksTextual(buf) {
		return stats.TypeText
	}
	words := len(buf) / 4
	if words == 0 {
		return stats.TypeBinary
	}
	floatish, intish := 0, 0
	for i := 0; i < words; i++ {
		f, n := wordTests(binary.LittleEndian.Uint32(buf[4*i:]), floatLo, floatHi-floatLo-1)
		floatish += f
		intish += n
	}
	return typeVerdict(floatish, intish, words)
}

// TestTypeSampleMatchesFullScan checks that sampling typeSamples words
// loses nothing on the data HCompress generates: for every (type, dist)
// of stats.GenBuffer, from 16 KiB (the largest buffer read whole) up to
// 1 MiB, the sampled verdict equals the verdict of a scan of every word.
func TestTypeSampleMatchesFullScan(t *testing.T) {
	for _, ty := range stats.AllTypes() {
		for _, d := range stats.AllDists() {
			for seed := int64(1); seed <= 8; seed++ {
				// GenBuffer draws its values in order and cuts at n, so
				// the buffer for each smaller size is a prefix of this.
				all := stats.GenBuffer(ty, d, 1<<20, seed)
				for size := 16 << 10; size <= len(all); size *= 2 {
					buf := all[:size]
					got, want := detectType(buf, looksTextual(buf)), fullScanType(buf)
					if got != want {
						t.Errorf("%v/%v/%d/seed %d: sampled %v, full scan %v", ty, d, size, seed, got, want)
					}
				}
			}
		}
	}
}

// TestLargeBufferAnalysisBounded checks end to end that analyzing a 16 MiB
// buffer costs about the same as analyzing 1 MiB — i.e. the detectors are
// O(sample), not O(n). An O(n) scan would be ~16x slower; we allow 8x of
// timing noise.
func TestLargeBufferAnalysisBounded(t *testing.T) {
	small := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 1<<20, 7)
	large := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 16<<20, 7)
	if r := Analyze(large); r.Type != stats.TypeFloat {
		t.Fatalf("16MiB float buffer detected as %v", r.Type)
	}
	best := func(buf []byte) time.Duration {
		b := time.Duration(1<<63 - 1)
		for i := 0; i < 7; i++ {
			start := time.Now()
			Analyze(buf)
			if d := time.Since(start); d < b {
				b = d
			}
		}
		return b
	}
	Analyze(small) // warm up
	bs, bl := best(small), best(large)
	if bl > 8*bs && bl > 2*time.Millisecond {
		t.Errorf("16MiB analysis took %v vs %v for 1MiB: not O(sample)", bl, bs)
	}
}
