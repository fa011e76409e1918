package predictor

import (
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hcompress/internal/seed"
	"hcompress/internal/stats"
	"hcompress/internal/tier"
)

func builtinCCP() *CCP {
	return New(seed.Builtin(tier.Ares(tier.GB, tier.GB, tier.GB, tier.GB)))
}

func TestPredictFromSeed(t *testing.T) {
	c := builtinCCP()
	cost, ok := c.Predict(stats.TypeText, stats.Normal, "lz4")
	if !ok {
		t.Fatal("no prediction for seeded codec")
	}
	if !cost.Valid() {
		t.Fatalf("invalid prediction %+v", cost)
	}
	// The additive model must keep the seeded spectrum ordering.
	bsc, _ := c.Predict(stats.TypeText, stats.Normal, "bsc")
	if bsc.CompressMBps >= cost.CompressMBps {
		t.Errorf("bsc speed %v >= lz4 speed %v", bsc.CompressMBps, cost.CompressMBps)
	}
	if bsc.Ratio <= cost.Ratio {
		t.Errorf("bsc ratio %v <= lz4 ratio %v", bsc.Ratio, cost.Ratio)
	}
}

func TestPredictUnknownCodec(t *testing.T) {
	c := builtinCCP()
	if _, ok := c.Predict(stats.TypeText, stats.Normal, "zstd"); ok {
		t.Fatal("prediction for unseeded codec")
	}
}

func TestFeedbackBatching(t *testing.T) {
	s := seed.Builtin(tier.Ares(tier.GB, tier.GB, tier.GB, tier.GB))
	s.FeedbackInterval = 10
	c := New(s)
	_, before := c.Stats()
	actual := seed.CodecCost{CompressMBps: 500, DecompressMBps: 900, Ratio: 3}
	for i := 0; i < 9; i++ {
		c.Feedback(stats.TypeInt, stats.Gamma, "lz4", actual)
	}
	if q, a := c.Stats(); q != 9 || a != before {
		t.Fatalf("feedback absorbed early: queued=%d absorbed=%d (before=%d)", q, a, before)
	}
	c.Feedback(stats.TypeInt, stats.Gamma, "lz4", actual)
	if _, a := c.Stats(); a != before+10 {
		t.Fatalf("batch not absorbed at interval: %d", a)
	}
}

// TestConcurrentPredictAndFeedback: one CCP serves every shard of a
// router, so planners read predictions while feeders of four codecs
// queue and flush. Every read finds its seeded cell, and once the feeders
// are done each cell holds exactly what its own stream, fed alone, gives
// it. Run it under -race.
func TestConcurrentPredictAndFeedback(t *testing.T) {
	mk := func() *CCP {
		s := seed.Builtin(tier.Ares(tier.GB, tier.GB, tier.GB, tier.GB))
		s.FeedbackInterval = 3
		return New(s)
	}
	codecs := []string{"bsc", "lz4", "snappy", "zlib"}
	stream := func(i int) []seed.CodecCost {
		out := make([]seed.CodecCost, 300)
		for j := range out {
			out[j] = seed.CodecCost{CompressMBps: float64(50 + 10*i + j%7), Ratio: 1.5 + float64(j%5)/10}
		}
		return out
	}
	shared := mk()
	stop := make(chan struct{})
	var feeders, readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, name := range codecs {
					if _, ok := shared.Predict(stats.TypeFloat, stats.Gamma, name); !ok {
						t.Errorf("no float/gamma prediction for %s mid-feedback", name)
						return
					}
				}
			}
		}()
	}
	for i, name := range codecs {
		feeders.Add(1)
		go func() {
			defer feeders.Done()
			for _, a := range stream(i) {
				shared.Feedback(stats.TypeFloat, stats.Gamma, name, a)
			}
		}()
	}
	feeders.Wait()
	close(stop)
	readers.Wait()
	shared.Flush()
	for i, name := range codecs {
		alone := mk()
		alone.FeedbackRun(stats.TypeFloat, stats.Gamma, name, stream(i))
		alone.Flush()
		got, _ := shared.Predict(stats.TypeFloat, stats.Gamma, name)
		want, _ := alone.Predict(stats.TypeFloat, stats.Gamma, name)
		if got != want {
			t.Errorf("%s: fed concurrently %+v, fed alone %+v", name, got, want)
		}
	}
}

// TestFeedbackRunMatchesSequential: a run queued through FeedbackRun
// must land the models where the same costs fed one-by-one land them,
// and runs must count observation-by-observation toward the flush
// interval.
func TestFeedbackRunMatchesSequential(t *testing.T) {
	mk := func() *CCP {
		s := seed.Builtin(tier.Ares(tier.GB, tier.GB, tier.GB, tier.GB))
		s.FeedbackInterval = 8
		return New(s)
	}
	seqC, runC := mk(), mk()
	_, before := runC.Stats() // seed bootstrap absorbs count too
	costs := make([]seed.CodecCost, 24)
	for i := range costs {
		costs[i] = seed.CodecCost{CompressMBps: 300 + float64(i), Ratio: 2.5}
	}
	for _, a := range costs {
		seqC.Feedback(stats.TypeInt, stats.Gamma, "lz4", a)
	}
	runC.FeedbackRun(stats.TypeInt, stats.Gamma, "lz4", costs)
	if _, a := runC.Stats(); a != before+24 {
		t.Fatalf("run of 24 over interval 8 absorbed %d (baseline %d)", a, before)
	}
	sp, _ := seqC.Predict(stats.TypeInt, stats.Gamma, "lz4")
	rp, _ := runC.Predict(stats.TypeInt, stats.Gamma, "lz4")
	if math.Abs(sp.CompressMBps-rp.CompressMBps) > 1e-6*sp.CompressMBps ||
		math.Abs(sp.Ratio-rp.Ratio) > 1e-6*sp.Ratio {
		t.Errorf("run prediction %+v differs from sequential %+v", rp, sp)
	}

	// Invalid entries are dropped, not absorbed.
	c := mk()
	c.FeedbackRun(stats.TypeInt, stats.Gamma, "lz4", []seed.CodecCost{{}, {}})
	if q, _ := c.Stats(); q != 0 {
		t.Errorf("invalid run entries queued: %d", q)
	}
}

func TestFeedbackCorrectsModel(t *testing.T) {
	// Seed says lz4 compresses int/gamma at ~900 MB/s; the "real system"
	// disagrees (300 MB/s). After feedback the prediction must move to
	// the observed value — the 83% -> 96% behaviour of §IV-D.
	s := seed.Builtin(tier.Ares(tier.GB, tier.GB, tier.GB, tier.GB))
	s.FeedbackInterval = 8
	c := New(s)
	before, _ := c.Predict(stats.TypeInt, stats.Gamma, "lz4")
	for i := 0; i < 200; i++ {
		c.Feedback(stats.TypeInt, stats.Gamma, "lz4",
			seed.CodecCost{CompressMBps: 300, DecompressMBps: 800, Ratio: 2.5})
	}
	c.Flush()
	after, _ := c.Predict(stats.TypeInt, stats.Gamma, "lz4")
	if math.Abs(after.CompressMBps-300) > 60 {
		t.Errorf("prediction %.0f MB/s, want ~300 (seed said %.0f)", after.CompressMBps, before.CompressMBps)
	}
	if math.Abs(after.Ratio-2.5) > 0.5 {
		t.Errorf("ratio %v, want ~2.5", after.Ratio)
	}
}

func TestPartialFeedback(t *testing.T) {
	s := seed.Builtin(tier.Ares(tier.GB, tier.GB, tier.GB, tier.GB))
	s.FeedbackInterval = 1
	c := New(s)
	// Decompress-only feedback (read path) must not corrupt the
	// compression-speed model.
	before, _ := c.Predict(stats.TypeText, stats.Uniform, "snappy")
	for i := 0; i < 200; i++ {
		c.Feedback(stats.TypeText, stats.Uniform, "snappy", seed.CodecCost{DecompressMBps: 123})
	}
	after, _ := c.Predict(stats.TypeText, stats.Uniform, "snappy")
	if math.Abs(after.CompressMBps-before.CompressMBps) > 1 {
		t.Errorf("compress model drifted from decompress-only feedback: %v -> %v",
			before.CompressMBps, after.CompressMBps)
	}
	if math.Abs(after.DecompressMBps-123) > 50 {
		t.Errorf("decompress model did not converge: %v", after.DecompressMBps)
	}
	// Entirely empty feedback is ignored.
	q1, _ := c.Stats()
	c.Feedback(stats.TypeText, stats.Uniform, "snappy", seed.CodecCost{})
	if q2, _ := c.Stats(); q2 != q1 {
		t.Error("empty feedback queued")
	}
}

func TestR2ImprovesWithFeedback(t *testing.T) {
	s := seed.Builtin(tier.Ares(tier.GB, tier.GB, tier.GB, tier.GB))
	s.FeedbackInterval = 4
	c := New(s)
	// Consistent observations drive the running R^2 up.
	for i := 0; i < 400; i++ {
		c.Feedback(stats.TypeFloat, stats.Normal, "snappy",
			seed.CodecCost{CompressMBps: 700 + float64(i%10), DecompressMBps: 1500, Ratio: 1.4})
	}
	c.Flush()
	if r2 := c.R2(); r2 < 0.80 {
		t.Errorf("R2 after consistent feedback = %.3f, want high", r2)
	}
}

func TestPredictionsClamped(t *testing.T) {
	s := seed.Builtin(tier.Ares(tier.GB, tier.GB, tier.GB, tier.GB))
	s.FeedbackInterval = 1
	c := New(s)
	// Hammer with feedback claiming ratio 0.0001 speeds — the clamp must
	// keep predictions physical.
	for i := 0; i < 100; i++ {
		c.Feedback(stats.TypeBinary, stats.Uniform, "rle",
			seed.CodecCost{CompressMBps: 0.001, DecompressMBps: 0.001, Ratio: 1})
	}
	cost, _ := c.Predict(stats.TypeBinary, stats.Uniform, "rle")
	if cost.CompressMBps < 0.1 || cost.Ratio < 1 {
		t.Errorf("unclamped prediction: %+v", cost)
	}
}

func TestFlushEmptyIsSafe(t *testing.T) {
	c := builtinCCP()
	c.Flush()
	c.Flush()
}

func BenchmarkPredict(b *testing.B) {
	c := builtinCCP()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Predict(stats.TypeFloat, stats.Gamma, "snappy")
	}
}

func BenchmarkFeedback(b *testing.B) {
	c := builtinCCP()
	actual := seed.CodecCost{CompressMBps: 500, DecompressMBps: 900, Ratio: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Feedback(stats.TypeInt, stats.Gamma, "lz4", actual)
	}
}

// predictions returns every (type, dist, codec) prediction for the
// codecs of the builtin seed, keyed like the seed's table.
func predictions(t testing.TB, c *CCP) map[string]seed.CodecCost {
	t.Helper()
	out := map[string]seed.CodecCost{}
	for _, name := range seed.Builtin(tier.Hierarchy{}).CodecNames() {
		for _, dt := range stats.AllTypes() {
			for _, dist := range stats.AllDists() {
				cost, ok := c.Predict(dt, dist, name)
				if !ok {
					t.Fatalf("no prediction for seeded %s", seed.Key(dt, dist, name))
				}
				out[seed.Key(dt, dist, name)] = cost
			}
		}
	}
	return out
}

// TestUnobservedCellsHoldTheirSeed: a stream that observes one cell must
// leave every other cell where the seed put it, however long it runs,
// and no prediction may ever leave the finite, clamped range.
func TestUnobservedCellsHoldTheirSeed(t *testing.T) {
	s := seed.Builtin(tier.Ares(tier.GB, tier.GB, tier.GB, tier.GB))
	s.FeedbackInterval = 1
	c := New(s)
	before := predictions(t, c)
	observed := seed.Key(stats.TypeFloat, stats.Gamma, "lz4")
	feed := func(n int) {
		for i := 0; i < n; i++ {
			j := float64(i%11-5) / 5 // a deterministic ±1 wobble
			c.Feedback(stats.TypeFloat, stats.Gamma, "lz4", seed.CodecCost{
				CompressMBps: 900 + 50*j, DecompressMBps: 2000 + 100*j, Ratio: 1.30 + 0.05*j,
			})
		}
	}
	feed(10000)
	after := predictions(t, c)
	for k, b := range before {
		if k == observed {
			continue
		}
		a := after[k]
		if math.Abs(a.CompressMBps-b.CompressMBps) > 1e-9*b.CompressMBps ||
			math.Abs(a.DecompressMBps-b.DecompressMBps) > 1e-9*b.DecompressMBps ||
			math.Abs(a.Ratio-b.Ratio) > 1e-9*b.Ratio {
			t.Errorf("%s moved without an observation: %+v -> %+v", k, b, a)
		}
	}
	if got := after[observed]; math.Abs(got.CompressMBps-900) > 50 || math.Abs(got.Ratio-1.30) > 0.05 {
		t.Errorf("observed cell %+v, want ~900 MB/s and ratio ~1.30", got)
	}

	feed(990000)
	for k, p := range predictions(t, c) {
		if !inClamps(p) {
			t.Errorf("%s after 1M observations: %+v", k, p)
		}
	}
}

func inClamps(p seed.CodecCost) bool {
	return p.CompressMBps >= 0.1 && p.CompressMBps <= 1e6 &&
		p.DecompressMBps >= 0.1 && p.DecompressMBps <= 1e6 &&
		p.Ratio >= 1 && p.Ratio <= 1e4 // NaN fails every comparison
}

// TestFeedbackRejectsNonFinite: NaN and ±Inf components never reach a
// model; a usable component beside them is still learned.
func TestFeedbackRejectsNonFinite(t *testing.T) {
	s := seed.Builtin(tier.Ares(tier.GB, tier.GB, tier.GB, tier.GB))
	s.FeedbackInterval = 1
	c := New(s)
	before, _ := c.Predict(stats.TypeText, stats.Normal, "lz4")
	nan, inf := math.NaN(), math.Inf(1)
	bad := []seed.CodecCost{
		{CompressMBps: nan, DecompressMBps: nan, Ratio: nan},
		{CompressMBps: inf, DecompressMBps: inf, Ratio: inf},
		{CompressMBps: -inf, DecompressMBps: -1, Ratio: 0.5},
		{CompressMBps: nan, Ratio: inf},
	}
	for _, b := range bad {
		c.Feedback(stats.TypeText, stats.Normal, "lz4", b)
	}
	c.FeedbackRun(stats.TypeText, stats.Normal, "lz4", bad)
	if q, a := c.Stats(); q != 0 || a != 0 {
		t.Fatalf("unusable feedback queued %d, absorbed %d", q, a)
	}
	if got, _ := c.Predict(stats.TypeText, stats.Normal, "lz4"); got != before {
		t.Fatalf("prediction moved on unusable feedback: %+v -> %+v", before, got)
	}

	c.Feedback(stats.TypeText, stats.Normal, "lz4", seed.CodecCost{CompressMBps: 300, DecompressMBps: nan, Ratio: inf})
	got, _ := c.Predict(stats.TypeText, stats.Normal, "lz4")
	if !(got.CompressMBps > 300 && got.CompressMBps < before.CompressMBps) {
		t.Errorf("finite compress speed not learned: %v -> %v", before.CompressMBps, got.CompressMBps)
	}
	if got.DecompressMBps != before.DecompressMBps || got.Ratio != before.Ratio {
		t.Errorf("non-finite components learned: %+v -> %+v", before, got)
	}
}

// TestTieBreakKeepsSeededOrder: the pull toward each codec's same-type
// mean must keep every strict seeded ordering between codecs in every
// cell, and must break the exact ties whose anchors differ — above all
// the binary/uniform ratio, which the seed sets to 1 for every codec.
func TestTieBreakKeepsSeededOrder(t *testing.T) {
	s := seed.Builtin(tier.Ares(tier.GB, tier.GB, tier.GB, tier.GB))
	c := New(s)
	names := s.CodecNames()
	component := func(cost seed.CodecCost, tg predTarget) float64 {
		return [numTargets]float64{cost.CompressMBps, cost.DecompressMBps, cost.Ratio}[tg]
	}
	broken := 0
	for _, dt := range stats.AllTypes() {
		for _, dist := range stats.AllDists() {
			i := cellOf(dt, dist)
			for tg := predTarget(0); tg < numTargets; tg++ {
				for x, a := range names {
					for _, b := range names[x+1:] {
						sa := component(s.Costs[seed.Key(dt, dist, a)], tg)
						sb := component(s.Costs[seed.Key(dt, dist, b)], tg)
						pa, pb := c.models[a].predict(tg, i), c.models[b].predict(tg, i)
						ma, mb := c.models[a].anchor[tg][i], c.models[b].anchor[tg][i]
						switch {
						case sa != sb:
							if (sa < sb) != (pa < pb) || pa == pb {
								t.Errorf("%s/%s %s: seed %s=%v %s=%v, predicted %v %v",
									dt, dist, targetNames[tg], a, sa, b, sb, pa, pb)
							}
						case ma != mb:
							broken++
							if (ma < mb) != (pa < pb) || pa == pb {
								t.Errorf("%s/%s %s: tie %s/%s not broken by anchors %v %v: %v %v",
									dt, dist, targetNames[tg], a, b, ma, mb, pa, pb)
							}
						}
					}
				}
			}
		}
	}
	if broken == 0 {
		t.Fatal("the seed has no exact tie with distinct anchors")
	}

	// The codec with the best ratio on the rest of binary data wins the
	// binary/uniform tie, and every codec there now beats storing raw.
	var best string
	for _, name := range names {
		p, _ := c.Predict(stats.TypeBinary, stats.Uniform, name)
		if p.Ratio <= 1 {
			t.Errorf("%s binary/uniform ratio %v, want the tie broken above 1", name, p.Ratio)
		}
		if b, _ := c.Predict(stats.TypeBinary, stats.Uniform, best); best == "" || p.Ratio > b.Ratio {
			best = name
		}
	}
	if best != "huffman" {
		t.Errorf("binary/uniform tie went to %s, want huffman (best binary ratio in the seed)", best)
	}
}

// TestCostsReloadPredictsTheSame: the learned table, loaded back as a
// seed, predicts exactly what it predicted before for every cell of a
// (codec, type) it learned nothing in. Within a (codec, type) it learned
// in, a cell's anchor is the mean of its siblings as loaded, so each
// cell moves by at most kappa times its siblings' learned change — a
// learned cell whose siblings learned nothing predicts the same. Written
// back with nothing learned, the table is unchanged, so the pull cannot
// compound across reloads.
func TestCostsReloadPredictsTheSame(t *testing.T) {
	s := seed.Builtin(tier.Ares(tier.GB, tier.GB, tier.GB, tier.GB))
	s.FeedbackInterval = 1
	c := New(s)
	for i := 0; i < 50; i++ {
		c.Feedback(stats.TypeInt, stats.Gamma, "lz4", seed.CodecCost{CompressMBps: 300, DecompressMBps: 800, Ratio: 2.5})
		c.Feedback(stats.TypeInt, stats.Normal, "lz4", seed.CodecCost{CompressMBps: 150, DecompressMBps: 600, Ratio: 1.8})
	}
	before := predictions(t, c)
	learned := c.Costs()
	// change[k] is how far cell k's loaded value moved from the seed.
	change := map[string][3]float64{}
	for k, v := range learned {
		o := s.Costs[k]
		change[k] = [3]float64{v.CompressMBps - o.CompressMBps, v.DecompressMBps - o.DecompressMBps, v.Ratio - o.Ratio}
	}

	s2 := seed.Builtin(tier.Ares(tier.GB, tier.GB, tier.GB, tier.GB))
	s2.Costs = learned
	c2 := New(s2)
	for k, b := range predictions(t, c2) {
		a := before[k]
		var bound [3]float64 // kappa · Σ|change| over k's siblings
		if strings.HasPrefix(k, "int/") && strings.HasSuffix(k, "/lz4") {
			for _, dist := range stats.AllDists() {
				if j := seed.Key(stats.TypeInt, dist, "lz4"); j != k {
					for x := range bound {
						bound[x] += kappa * math.Abs(change[j][x])
					}
				}
			}
		}
		for x, d := range [3]float64{b.CompressMBps - a.CompressMBps, b.DecompressMBps - a.DecompressMBps, b.Ratio - a.Ratio} {
			if math.Abs(d) > bound[x]*(1+1e-9) {
				t.Errorf("%s target %d moved by %g over a reload, bound %g: %+v -> %+v", k, x, d, bound[x], a, b)
			}
		}
	}
	if again := New(s2).Costs(); !reflect.DeepEqual(again, s2.Costs) {
		t.Error("a reloaded table written back unchanged differs from what was loaded")
	}
}

// FuzzCCPFeedback: any stream of (cell, codec, cost) feedback — zero,
// negative, subnormal, huge, NaN and ±Inf components included, flushed
// at small intervals — leaves every prediction finite and inside the
// clamps. A record is 26 bytes: the cell (type in bits 0-1, dist in bits
// 2-3, bit 7 sends it as a run of two), the codec, and three little-endian
// float64s (compress, decompress, ratio).
func FuzzCCPFeedback(f *testing.F) {
	record := func(cellByte, codecByte byte, comp, dec, ratio float64) []byte {
		b := []byte{cellByte, codecByte}
		for _, v := range []float64{comp, dec, ratio} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(uint8(0), record(0x0b, 2, 900, 2000, 1.3))
	f.Add(uint8(1), append(record(0x00, 5, nan, inf, -inf), record(0x8f, 11, 0, -1, 0.5)...))
	f.Add(uint8(3), append(record(0x05, 3, 1e308, 1e308, 1e308), record(0x85, 3, 5e-324, 5e-324, 1)...))
	f.Add(uint8(7), append(record(0x0a, 12, 1, 1, 1), record(0x0a, 0, math.MaxFloat64, nan, 2)...))
	names := append(seed.Builtin(tier.Hierarchy{}).CodecNames(), "zstd") // and one the seed lacks
	f.Fuzz(func(t *testing.T, interval uint8, data []byte) {
		s := seed.Builtin(tier.Ares(tier.GB, tier.GB, tier.GB, tier.GB))
		s.FeedbackInterval = int(interval%8) + 1
		c := New(s)
		const size = 2 + 3*8
		for ; len(data) >= size; data = data[size:] {
			dt, dist := stats.DataType(data[0]&3), stats.Dist(data[0]>>2&3)
			name := names[int(data[1])%len(names)]
			f64 := func(off int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(data[off:])) }
			cost := seed.CodecCost{CompressMBps: f64(2), DecompressMBps: f64(10), Ratio: f64(18)}
			if data[0]&0x80 != 0 {
				c.FeedbackRun(dt, dist, name, []seed.CodecCost{cost, cost})
			} else {
				c.Feedback(dt, dist, name, cost)
			}
		}
		c.Flush()
		for k, p := range predictions(t, c) {
			if !inClamps(p) {
				t.Fatalf("%s: %+v", k, p)
			}
		}
	})
}
