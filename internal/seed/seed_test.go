package seed

import (
	"math"
	"path/filepath"
	"testing"

	"hcompress/internal/codec"
	"hcompress/internal/stats"
	"hcompress/internal/tier"
)

func TestBuiltinCoversAllCombinations(t *testing.T) {
	s := Builtin(tier.Ares(tier.GB, tier.GB, tier.GB, tier.GB))
	for _, dt := range stats.AllTypes() {
		for _, d := range stats.AllDists() {
			for _, c := range codec.All() {
				if c.ID() == codec.None {
					continue
				}
				cost, ok := s.Costs[Key(dt, d, c.Name())]
				if !ok {
					t.Fatalf("missing %s", Key(dt, d, c.Name()))
				}
				if !cost.Valid() {
					t.Fatalf("invalid cost for %s: %+v", Key(dt, d, c.Name()), cost)
				}
			}
		}
	}
	if len(s.CodecNames()) != len(codec.All())-1 {
		t.Errorf("CodecNames: %v", s.CodecNames())
	}
}

func TestBuiltinSpectrumShape(t *testing.T) {
	// The builtin table must preserve the orderings the paper depends on:
	// bsc compresses better but slower than lz4, everywhere.
	s := Builtin(tier.Ares(tier.GB, tier.GB, tier.GB, tier.GB))
	for _, dt := range stats.AllTypes() {
		for _, d := range stats.AllDists() {
			lz4 := s.Costs[Key(dt, d, "lz4")]
			bsc := s.Costs[Key(dt, d, "bsc")]
			if lz4.CompressMBps <= bsc.CompressMBps {
				t.Errorf("%v/%v: lz4 should be faster than bsc", dt, d)
			}
			if bsc.Ratio < lz4.Ratio {
				t.Errorf("%v/%v: bsc should compress at least as well as lz4", dt, d)
			}
		}
	}
	// Floats compress worse than text for the heavy codecs.
	ft := s.Costs[Key(stats.TypeFloat, stats.Normal, "bzip2")]
	tx := s.Costs[Key(stats.TypeText, stats.Normal, "bzip2")]
	if ft.Ratio >= tx.Ratio {
		t.Errorf("float ratio %v should be below text ratio %v", ft.Ratio, tx.Ratio)
	}
}

func TestLookupFallbacks(t *testing.T) {
	s := Builtin(tier.Ares(tier.GB, tier.GB, tier.GB, tier.GB))
	// Exact hit.
	c, ok := s.Lookup(stats.TypeInt, stats.Gamma, "snappy")
	if !ok || !c.Valid() {
		t.Fatal("exact lookup failed")
	}
	// Remove the exact entry: falls back to type average.
	delete(s.Costs, Key(stats.TypeInt, stats.Gamma, "snappy"))
	c2, ok := s.Lookup(stats.TypeInt, stats.Gamma, "snappy")
	if !ok || !c2.Valid() {
		t.Fatal("type-average fallback failed")
	}
	// Remove all int entries: falls back to global codec average.
	for _, d := range stats.AllDists() {
		delete(s.Costs, Key(stats.TypeInt, d, "snappy"))
	}
	c3, ok := s.Lookup(stats.TypeInt, stats.Gamma, "snappy")
	if !ok || !c3.Valid() {
		t.Fatal("global fallback failed")
	}
	// Unknown codec: not ok.
	if _, ok := s.Lookup(stats.TypeInt, stats.Gamma, "zstd"); ok {
		t.Fatal("unknown codec should miss")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seed.json")
	s := Builtin(tier.Ares(2*tier.GB, 4*tier.GB, tier.TB, 10*tier.TB))
	readAfterWrite := Weights{Compression: 0.3, Decompression: 0.3, Ratio: 0.4}
	s.Weights = readAfterWrite
	s.FeedbackInterval = 32
	learned := CodecCost{CompressMBps: 123.25, DecompressMBps: 456.5, Ratio: 1.75}
	s.Costs[Key(stats.TypeInt, stats.Gamma, "lz4")] = learned
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.FeedbackInterval != 32 {
		t.Errorf("interval %d", back.FeedbackInterval)
	}
	if back.Weights != readAfterWrite {
		t.Errorf("weights %+v", back.Weights)
	}
	if len(back.Costs) != len(s.Costs) {
		t.Errorf("costs %d != %d", len(back.Costs), len(s.Costs))
	}
	if back.System.Len() != 4 || back.System.Tiers[0].Capacity != 2*tier.GB {
		t.Errorf("system signature lost")
	}
	if got := back.Costs[Key(stats.TypeInt, stats.Gamma, "lz4")]; got != learned {
		t.Errorf("learned cost %+v came back as %+v", learned, got)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/seed.json"); err == nil {
		t.Fatal("expected error")
	}
}

func TestGenerateProfilesRealCodecs(t *testing.T) {
	h := tier.Ares(tier.GB, tier.GB, tier.GB, tier.GB)
	// Tiny buffers and a fast codec subset keep the test quick while
	// exercising the real measurement path.
	s, err := Generate(h, ProfileOptions{
		BufSize: 16 << 10,
		Codecs:  []string{"lz4", "snappy", "huffman"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dt := range stats.AllTypes() {
		for _, d := range stats.AllDists() {
			for _, name := range []string{"lz4", "snappy", "huffman"} {
				c, ok := s.Costs[Key(dt, d, name)]
				if !ok || !c.Valid() {
					t.Fatalf("profile missing %s/%s/%s: %+v", dt, d, name, c)
				}
			}
		}
	}
	if got := s.CodecNames(); len(got) != 3 {
		t.Errorf("profiled codecs: %v", got)
	}
	// Text must profile with a real ratio above 1 for LZ codecs.
	if c := s.Costs[Key(stats.TypeText, stats.Uniform, "lz4")]; c.Ratio <= 1.1 {
		t.Errorf("text/lz4 ratio %v suspiciously low", c.Ratio)
	}
}

func TestMeasureCodecAgainstKnownInput(t *testing.T) {
	c, _ := codec.ByName("rle")
	buf := make([]byte, 64<<10) // zeros: RLE compresses massively
	cost, err := measureCodec(c, buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Ratio < 50 {
		t.Errorf("rle on zeros ratio %v", cost.Ratio)
	}
	if cost.CompressMBps <= 0 || cost.DecompressMBps <= 0 {
		t.Errorf("non-positive speeds: %+v", cost)
	}
}

func TestWeightsNormalize(t *testing.T) {
	w := Weights{Compression: 2, Decompression: 1, Ratio: 1}.Normalize()
	if math.Abs(w.Compression-0.5) > 1e-12 || math.Abs(w.Ratio-0.25) > 1e-12 {
		t.Errorf("normalize: %+v", w)
	}
	z := Weights{}.Normalize()
	if math.Abs(z.Compression+z.Decompression+z.Ratio-1) > 1e-12 {
		t.Errorf("zero weights should normalize to equal: %+v", z)
	}
}

func TestCodecCostValid(t *testing.T) {
	cases := []struct {
		c    CodecCost
		want bool
	}{
		{CodecCost{100, 100, 2}, true},
		{CodecCost{0, 100, 2}, false},
		{CodecCost{100, 0, 2}, false},
		{CodecCost{100, 100, 0.9}, false},
		{CodecCost{100, 100, 1}, true},
	}
	for i, c := range cases {
		if c.c.Valid() != c.want {
			t.Errorf("case %d: %+v", i, c.c)
		}
	}
}
