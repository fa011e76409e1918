package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hcompress/internal/analyzer"
	"hcompress/internal/codec"
	"hcompress/internal/monitor"
	"hcompress/internal/predictor"
	"hcompress/internal/seed"
	"hcompress/internal/stats"
	"hcompress/internal/store"
	"hcompress/internal/tier"
)

// The Table II presets the tests plan under: asynchronous I/O weighs
// compression speed only, archival I/O weighs ratio only.
var (
	weightsAsync    = seed.Weights{Compression: 1}
	weightsArchival = seed.Weights{Ratio: 1}
)

// lz4ID is the lz4 codec's header ID, looked up by name as callers do.
var lz4ID = func() codec.ID {
	c, err := codec.ByName("lz4")
	if err != nil {
		panic(err)
	}
	return c.ID()
}()

type fixture struct {
	st   *store.Store
	mon  *monitor.SystemMonitor
	pred *predictor.CCP
	hier tier.Hierarchy
}

func newFixture(t *testing.T, ramCap, nvmeCap, bbCap, pfsCap int64) *fixture {
	t.Helper()
	h := tier.Ares(ramCap, nvmeCap, bbCap, pfsCap)
	st, err := store.Open(h, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		st:   st,
		mon:  monitor.New(st, 0),
		pred: predictor.New(seed.Builtin(h)),
		hier: h,
	}
}

func (f *fixture) engine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(f.pred, f.mon, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func textAttr() analyzer.Result {
	return analyzer.Result{Type: stats.TypeText, Dist: stats.Normal}
}

func floatAttr() analyzer.Result {
	return analyzer.Result{Type: stats.TypeFloat, Dist: stats.Gamma}
}

func TestPlanSmallTaskSingleSubTask(t *testing.T) {
	f := newFixture(t, tier.GB, tier.GB, tier.GB, tier.TB)
	e := f.engine(t, Config{Weights: seed.WeightsEqual})
	sc, err := e.Plan(0, textAttr(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.SubTasks) != 1 {
		t.Fatalf("want 1 sub-task, got %d", len(sc.SubTasks))
	}
	st := sc.SubTasks[0]
	if st.Tier != 0 {
		t.Errorf("small task should land on RAM, got tier %d", st.Tier)
	}
	if st.Length != 1<<20 {
		t.Errorf("length %d", st.Length)
	}
	if err := sc.Validate(1<<20, f.hier.Len(), f.hier.Concurrency()); err != nil {
		t.Fatal(err)
	}
	if sc.PredTime <= 0 {
		t.Error("predicted time must be positive")
	}
}

func TestPlanUsesCompression(t *testing.T) {
	// When the fast tiers are too small, the task lands on slow media and
	// the I/O saving from compression dwarfs the cycle cost: the engine
	// must choose a codec. (On a fast, empty RAM tier "none" can win —
	// the paper's objective explicitly allows it.)
	f := newFixture(t, 4*tier.MB, 8*tier.MB, tier.GB, tier.TB)
	e := f.engine(t, Config{Weights: seed.WeightsEqual})
	sc, err := e.Plan(0, textAttr(), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	compressed := false
	for _, st := range sc.SubTasks {
		if st.Codec != codec.None {
			compressed = true
		}
	}
	if !compressed {
		t.Error("compressible data bound for slow tiers should be compressed")
	}
}

func TestPlanSkipsCompressionOnIncompressibleData(t *testing.T) {
	// "The objective function also considers the possibility of no
	// compression": on data with ratio ~1 across the pool (uniform byte
	// noise), paying compression cycles buys nothing and the engine must
	// pick c = 0.
	f := newFixture(t, tier.GB, tier.GB, tier.GB, tier.TB)
	e := f.engine(t, Config{Weights: seed.WeightsEqual})
	attr := analyzer.Result{Type: stats.TypeBinary, Dist: stats.Uniform}
	sc, err := e.Plan(0, attr, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if sc.SubTasks[0].Tier != 0 {
		t.Errorf("tier %d, want RAM", sc.SubTasks[0].Tier)
	}
	if sc.SubTasks[0].Codec != codec.None {
		t.Errorf("incompressible data picked codec %d", sc.SubTasks[0].Codec)
	}
}

func TestPriorityWeightsChangeSelection(t *testing.T) {
	f := newFixture(t, tier.GB, tier.GB, tier.GB, tier.TB)

	eAsync := f.engine(t, Config{Weights: weightsAsync})
	scA, err := eAsync.Plan(0, textAttr(), 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	eArch := f.engine(t, Config{Weights: weightsArchival})
	scR, err := eArch.Plan(0, textAttr(), 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	costOf := func(id codec.ID) seed.CodecCost {
		if id == codec.None {
			return seed.CodecCost{CompressMBps: 1e9, DecompressMBps: 1e9, Ratio: 1}
		}
		c, _ := codec.ByID(id)
		cost, _ := f.pred.Predict(stats.TypeText, stats.Normal, c.Name())
		return cost
	}
	ca := costOf(scA.SubTasks[0].Codec)
	cr := costOf(scR.SubTasks[0].Codec)
	// Archival prioritizes ratio; async prioritizes compression speed.
	if cr.Ratio < ca.Ratio {
		t.Errorf("archival chose ratio %.2f < async's %.2f", cr.Ratio, ca.Ratio)
	}
	if ca.CompressMBps < cr.CompressMBps {
		t.Errorf("async chose speed %.0f < archival's %.0f", ca.CompressMBps, cr.CompressMBps)
	}
}

func TestPlanSplitsAcrossTiers(t *testing.T) {
	// RAM is far too small: the task must split, upper tier first.
	f := newFixture(t, 4*tier.MB, 64*tier.MB, tier.GB, tier.TB)
	e := f.engine(t, Config{Weights: seed.WeightsEqual})
	size := int64(40 << 20)
	sc, err := e.Plan(0, floatAttr(), size)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.SubTasks) < 2 {
		t.Fatalf("expected a split, got %d sub-tasks", len(sc.SubTasks))
	}
	if err := sc.Validate(size, f.hier.Len(), f.hier.Concurrency()); err != nil {
		t.Fatal(err)
	}
	// Tiers strictly descend and the stored estimate fits each tier.
	statuses := f.st.Status(0)
	for _, st := range sc.SubTasks {
		if st.PredSize > statuses[st.Tier].Remaining {
			t.Errorf("sub-task predicted %d bytes > tier %d remaining %d",
				st.PredSize, st.Tier, statuses[st.Tier].Remaining)
		}
	}
}

// TestSplitSchemaReportsItsOwnCost: each sub-task's PredTime is its own
// piece's cost, so the pieces sum to Schema.PredTime, the DP's optimum. A split node's memo value covers the rest of the task too, so
// summing memo values would count every later piece once per level
// above it.
func TestSplitSchemaReportsItsOwnCost(t *testing.T) {
	f := newFixture(t, 4*tier.MB, 64*tier.MB, tier.GB, tier.TB)
	e := f.engine(t, Config{Weights: seed.WeightsEqual})
	splits := 0
	for _, attr := range []analyzer.Result{floatAttr(), textAttr(), {Type: stats.TypeBinary, Dist: stats.Uniform}} {
		for _, size := range []int64{64 << 10, 3 << 20, 40 << 20, 100<<20 + 123, 900 << 20} {
			sc, err := e.Plan(0, attr, size)
			if err != nil {
				t.Fatal(err)
			}
			// The optimum, from a DP run set up as solve sets it up.
			d := dp{e: e, w: e.w, tiers: f.hier.Tiers, statuses: f.mon.Status(0), memo: map[memoKey]planVal{}}
			for _, c := range e.pool {
				if cost, ok := f.pred.Predict(attr.Type, attr.Dist, c.Name()); ok && cost.Ratio >= 1 {
					d.cands = append(d.cands, candidate{id: c.ID(), cost: cost})
				}
			}
			best, err := d.match(alignUp(size), 0)
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for _, st := range sc.SubTasks {
				if st.PredTime <= 0 {
					t.Errorf("%v/%v %d B: sub-task %+v has no cost of its own", attr.Type, attr.Dist, size, st)
				}
				sum += st.PredTime
			}
			if sc.PredTime != best || math.Abs(sum-best) > 1e-12*best {
				t.Errorf("%v/%v %d B: pieces sum to %v, Schema.PredTime %v, DP optimum %v",
					attr.Type, attr.Dist, size, sum, sc.PredTime, best)
			}
			if len(sc.SubTasks) > 1 {
				splits++
			}
		}
	}
	if splits == 0 {
		t.Fatal("no plan split; the test checks nothing")
	}
}

func TestPlanDisableCompression(t *testing.T) {
	f := newFixture(t, tier.GB, tier.GB, tier.GB, tier.TB)
	e := f.engine(t, Config{Weights: seed.WeightsEqual, DisableCompression: true})
	sc, err := e.Plan(0, textAttr(), 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sc.SubTasks {
		if st.Codec != codec.None {
			t.Fatalf("placement-only engine chose codec %d", st.Codec)
		}
	}
}

func TestPlanNoSpace(t *testing.T) {
	f := newFixture(t, 1*tier.MB, 1*tier.MB, 1*tier.MB, 1*tier.MB)
	e := f.engine(t, Config{Weights: seed.WeightsEqual})
	_, err := e.Plan(0, floatAttr(), 1<<30)
	if !errors.Is(err, errNoSpace) {
		t.Fatalf("want errNoSpace, got %v", err)
	}
}

func TestPlanRejectsBadSize(t *testing.T) {
	f := newFixture(t, tier.GB, tier.GB, tier.GB, tier.TB)
	e := f.engine(t, Config{})
	if _, err := e.Plan(0, textAttr(), 0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := e.Plan(0, textAttr(), -5); err == nil {
		t.Error("negative size accepted")
	}
}

func TestPlanAccountsForUsedCapacity(t *testing.T) {
	f := newFixture(t, 8*tier.MB, tier.GB, tier.GB, tier.TB)
	e := f.engine(t, Config{Weights: seed.WeightsEqual, DisableCompression: true})
	// Fill RAM almost completely.
	if _, err := f.st.Put(0, 0, "fill", nil, 7<<20); err != nil {
		t.Fatal(err)
	}
	sc, err := e.Plan(0, floatAttr(), 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	if sc.SubTasks[0].Tier == 0 && sc.SubTasks[0].PredSize > 1<<20 {
		t.Errorf("planned %d bytes into a tier with 1MB free", sc.SubTasks[0].PredSize)
	}
}

func TestMemoizationReuse(t *testing.T) {
	// Repeated identical plans are served whole by the plan cache: the
	// DP runs once, so its sub-problem count does not move.
	f := newFixture(t, tier.GB, tier.GB, tier.GB, tier.TB)
	e := f.engine(t, Config{Weights: seed.WeightsEqual})
	if _, err := e.Plan(0, textAttr(), 1<<20); err != nil {
		t.Fatal(err)
	}
	_, m1 := e.MemoStats()
	for i := 0; i < 100; i++ {
		if _, err := e.Plan(0, textAttr(), 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	_, m2 := e.MemoStats()
	if m2 != m1 {
		t.Errorf("repeated identical plans recomputed: misses %d -> %d", m1, m2)
	}
	if h, m := e.PlanCacheStats(); h != 100 || m != 1 {
		t.Errorf("plan cache served %d of 100 repeats with %d misses, want 100 and 1", h, m)
	}
}

func TestMemoInvalidatedByCapacityChange(t *testing.T) {
	f := newFixture(t, 8*tier.MB, tier.GB, tier.GB, tier.TB)
	e := f.engine(t, Config{Weights: seed.WeightsEqual, DisableCompression: true})
	sc1, err := e.Plan(0, floatAttr(), 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if sc1.SubTasks[0].Tier != 0 {
		t.Fatalf("first plan should use RAM")
	}
	// Consume nearly all of RAM; the cached "use RAM" plan is stale and
	// must be retired by the capacity stamp.
	if _, err := f.st.Put(0, 0, "fill", nil, 7<<20); err != nil {
		t.Fatal(err)
	}
	sc2, err := e.Plan(0, floatAttr(), 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	// RAM has 1MB free: the plan may still start there, but only with a
	// piece that fits; placing 4MB there means a stale plan was served.
	if sc2.SubTasks[0].Tier == 0 && sc2.SubTasks[0].PredSize > 1<<20 {
		t.Errorf("stale plan reused after capacity change: planned %d bytes into 1MB free", sc2.SubTasks[0].PredSize)
	}
	if len(sc2.SubTasks) < 2 {
		t.Errorf("4MB task with 1MB of RAM free should split, got %d sub-tasks", len(sc2.SubTasks))
	}
}

func TestSetWeightsInvalidatesPlans(t *testing.T) {
	f := newFixture(t, tier.GB, tier.GB, tier.GB, tier.TB)
	e := f.engine(t, Config{Weights: weightsAsync})
	sc1, _ := e.Plan(0, textAttr(), 16<<20)
	e.SetWeights(weightsArchival)
	sc2, _ := e.Plan(0, textAttr(), 16<<20)
	if sc1.SubTasks[0].Codec == sc2.SubTasks[0].Codec {
		t.Log("note: same codec under both priorities (legal but unusual)")
	}
	// The new weights are in force: the plan matches a fresh engine's.
	fresh, _ := f.engine(t, Config{Weights: weightsArchival}).Plan(0, textAttr(), 16<<20)
	if !reflect.DeepEqual(sc2.SubTasks, fresh.SubTasks) {
		t.Errorf("weights not applied: %+v, fresh engine plans %+v", sc2.SubTasks, fresh.SubTasks)
	}
}

func TestRestrictedCodecPool(t *testing.T) {
	f := newFixture(t, tier.GB, tier.GB, tier.GB, tier.TB)
	e := f.engine(t, Config{Weights: seed.WeightsEqual, Codecs: []string{"lz4"}})
	sc, err := e.Plan(0, textAttr(), 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sc.SubTasks {
		if st.Codec != codec.None && st.Codec != lz4ID {
			t.Errorf("codec %d outside restricted pool", st.Codec)
		}
	}
	if _, err := New(f.pred, f.mon, Config{Codecs: []string{"zstd"}}); err == nil {
		t.Error("unknown codec name accepted")
	}
}

func TestSchemaValidateCatchesViolations(t *testing.T) {
	good := Schema{SubTasks: []SubTask{
		{Offset: 0, Length: 8192, Tier: 0, Codec: lz4ID},
		{Offset: 8192, Length: 100, Tier: 1, Codec: codec.None},
	}}
	if err := good.Validate(8292, 4, 100); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	cases := []struct {
		name string
		s    Schema
		size int64
	}{
		{"gap", Schema{SubTasks: []SubTask{{Offset: 4096, Length: 4096, Tier: 0}}}, 4096},
		{"unaligned-mid", Schema{SubTasks: []SubTask{
			{Offset: 0, Length: 100, Tier: 0}, {Offset: 100, Length: 4096, Tier: 1}}}, 4196},
		{"tier-order", Schema{SubTasks: []SubTask{
			{Offset: 0, Length: 4096, Tier: 1}, {Offset: 4096, Length: 10, Tier: 0}}}, 4106},
		{"coverage", Schema{SubTasks: []SubTask{{Offset: 0, Length: 4096, Tier: 0}}}, 9999},
		{"zero-length", Schema{SubTasks: []SubTask{{Offset: 0, Length: 0, Tier: 0}}}, 0},
	}
	for _, c := range cases {
		if err := c.s.Validate(c.size, 4, 100); err == nil {
			t.Errorf("%s: violation not caught", c.name)
		}
	}
	// Constraint 3: more sub-tasks than tiers.
	if err := good.Validate(8292, 1, 100); err == nil {
		t.Error("tier-count violation not caught")
	}
	// Constraint 2: concurrency.
	if err := good.Validate(8292, 4, 1); err == nil {
		t.Error("concurrency violation not caught")
	}
}

func TestPlanPropertyRandomSizes(t *testing.T) {
	f := newFixture(t, 16*tier.MB, 64*tier.MB, 256*tier.MB, tier.TB)
	e := f.engine(t, Config{Weights: seed.WeightsEqual})
	rng := rand.New(rand.NewSource(77))
	attrs := []analyzer.Result{textAttr(), floatAttr(),
		{Type: stats.TypeInt, Dist: stats.Uniform},
		{Type: stats.TypeBinary, Dist: stats.Exponential}}
	for trial := 0; trial < 200; trial++ {
		size := int64(rng.Intn(200<<20) + 1)
		attr := attrs[rng.Intn(len(attrs))]
		sc, err := e.Plan(0, attr, size)
		if err != nil {
			t.Fatalf("trial %d size %d: %v", trial, size, err)
		}
		if err := sc.Validate(size, f.hier.Len(), f.hier.Concurrency()); err != nil {
			t.Fatalf("trial %d size %d: %v", trial, size, err)
		}
	}
}

func TestPlanHeavyCompressionOnFasterTier(t *testing.T) {
	// The paper's core intuition: "for the same overall time budget, one
	// could apply heavier compression on RAM than on NVMe SSD (as the
	// medium is faster)". Verify the engine's cost model reflects it:
	// the chosen codec ratio on the RAM placement is >= the ratio it
	// picks when only the PFS is available.
	h := tier.Ares(tier.GB, tier.GB, tier.GB, tier.TB)
	stFull, _ := store.Open(h, store.Options{})
	pred := predictor.New(seed.Builtin(h))

	eAll, _ := New(pred, monitor.New(stFull, 0), Config{Weights: seed.WeightsEqual})
	scRAM, err := eAll.Plan(0, textAttr(), 16<<20)
	if err != nil {
		t.Fatal(err)
	}

	pfsOnly := tier.Hierarchy{Tiers: tier.Ares(1, 1, 1, tier.TB).Tiers[3:]}
	stPFS, _ := store.Open(pfsOnly, store.Options{})
	ePFS, _ := New(predictor.New(seed.Builtin(pfsOnly)), monitor.New(stPFS, 0), Config{Weights: seed.WeightsEqual})
	scPFS, err := ePFS.Plan(0, textAttr(), 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	ratioOf := func(sc Schema, p *predictor.CCP) float64 {
		id := sc.SubTasks[0].Codec
		if id == codec.None {
			return 1
		}
		c, _ := codec.ByID(id)
		cost, _ := p.Predict(stats.TypeText, stats.Normal, c.Name())
		return cost.Ratio
	}
	rRAM := ratioOf(scRAM, pred)
	rPFS := ratioOf(scPFS, predictor.New(seed.Builtin(pfsOnly)))
	// On a slow PFS, heavier compression pays off; on fast RAM, light
	// codecs win. The PFS choice should compress at least as hard.
	if rPFS < rRAM {
		t.Errorf("PFS codec ratio %.2f < RAM codec ratio %.2f; expected heavier compression on slower tier", rPFS, rRAM)
	}
}

// BenchmarkPlanMemoized plans one repeated task: every plan after the
// first is a plan-cache hit.
func BenchmarkPlanMemoized(b *testing.B) {
	h := tier.Ares(tier.GB, tier.GB, tier.GB, tier.TB)
	st, _ := store.Open(h, store.Options{})
	e, _ := New(predictor.New(seed.Builtin(h)), monitor.New(st, 1e9), Config{Weights: seed.WeightsEqual})
	attr := analyzer.Result{Type: stats.TypeFloat, Dist: stats.Gamma}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Plan(0, attr, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanUnmemoized plans the same task with the plan cache off,
// so every plan runs the DP.
func BenchmarkPlanUnmemoized(b *testing.B) {
	h := tier.Ares(tier.GB, tier.GB, tier.GB, tier.TB)
	st, _ := store.Open(h, store.Options{})
	e, _ := New(predictor.New(seed.Builtin(h)), monitor.New(st, 1e9), Config{Weights: seed.WeightsEqual, DisablePlanCache: true})
	attr := analyzer.Result{Type: stats.TypeFloat, Dist: stats.Gamma}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Plan(0, attr, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPlanCacheHits(t *testing.T) {
	f := newFixture(t, tier.GB, tier.GB, tier.GB, tier.TB)
	e := f.engine(t, Config{Weights: seed.WeightsEqual})
	for i := 0; i < 20; i++ {
		if _, err := e.Plan(0, textAttr(), 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := e.PlanCacheStats()
	if hits != 19 {
		t.Errorf("19 repeats of an identical plan produced %d plan-cache hits", hits)
	}
	if misses != 1 {
		t.Errorf("only the first plan may miss the plan cache, got %d misses", misses)
	}
}

func TestPlanCacheDeterminism(t *testing.T) {
	// The cache must be invisible: byte-identical schemas with it on or
	// off, across repeats, varied keys, and a weight change mid-stream.
	mk := func(disable bool) *Engine {
		f := newFixture(t, tier.GB, tier.GB, tier.GB, tier.TB)
		return f.engine(t, Config{Weights: seed.WeightsEqual, DisablePlanCache: disable})
	}
	on, off := mk(false), mk(true)
	type step struct {
		attr analyzer.Result
		size int64
	}
	var steps []step
	for i := 0; i < 40; i++ {
		a := textAttr()
		if i%3 == 1 {
			a = floatAttr()
		}
		steps = append(steps, step{a, 1 << (18 + uint(i%6))})
	}
	for i, s := range steps {
		if i == 25 {
			on.SetWeights(weightsArchival)
			off.SetWeights(weightsArchival)
		}
		a, err1 := on.Plan(0, s.attr, s.size)
		b, err2 := off.Plan(0, s.attr, s.size)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("step %d: error divergence %v vs %v", i, err1, err2)
		}
		if !reflect.DeepEqual(a.SubTasks, b.SubTasks) || a.PredTime != b.PredTime {
			t.Fatalf("step %d: cached schema differs from uncached:\n%+v\nvs\n%+v", i, a, b)
		}
	}
	if h, _ := on.PlanCacheStats(); h == 0 {
		t.Error("determinism run exercised no cache hits")
	}
	if h, m := off.PlanCacheStats(); h != 0 || m != 0 {
		t.Errorf("disabled cache recorded traffic: %d hits %d misses", h, m)
	}
}

func TestPlanCacheInvalidatedBySetWeights(t *testing.T) {
	f := newFixture(t, tier.GB, tier.GB, tier.GB, tier.TB)
	e := f.engine(t, Config{Weights: weightsAsync})
	e.Plan(0, textAttr(), 16<<20)
	e.Plan(0, textAttr(), 16<<20)
	hits1, _ := e.PlanCacheStats()
	if hits1 == 0 {
		t.Fatal("no hit before weight change")
	}
	e.SetWeights(weightsArchival)
	e.Plan(0, textAttr(), 16<<20)
	hits2, misses := e.PlanCacheStats()
	if hits2 != hits1 {
		t.Errorf("plan after SetWeights served from stale cache (hits %d -> %d)", hits1, hits2)
	}
	if misses < 2 {
		t.Errorf("expected a fresh miss after SetWeights, misses=%d", misses)
	}
}

func TestPlanCacheInvalidatedByCapacityDrift(t *testing.T) {
	f := newFixture(t, 8*tier.MB, tier.GB, tier.GB, tier.TB)
	e := f.engine(t, Config{Weights: seed.WeightsEqual, DisableCompression: true})
	// Warm the cache with a plan that places 4MB in RAM.
	for i := 0; i < 3; i++ {
		if _, err := e.Plan(0, floatAttr(), 4<<20); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.st.Put(0, 0, "fill", nil, 7<<20); err != nil {
		t.Fatal(err)
	}
	sc, err := e.Plan(0, floatAttr(), 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if sc.SubTasks[0].Tier == 0 && sc.SubTasks[0].PredSize > 1<<20 {
		t.Errorf("stale cached plan served after capacity drift: %d bytes into 1MB free", sc.SubTasks[0].PredSize)
	}
}

// Validate checks the Table I constraints against a hierarchy of nTiers
// tiers with the given total lane concurrency.
func (s Schema) Validate(taskSize int64, nTiers, concurrency int) error {
	if len(s.SubTasks) > nTiers {
		return fmt.Errorf("hcdp: %d sub-tasks exceed %d tiers (constraint 3)", len(s.SubTasks), nTiers)
	}
	if len(s.SubTasks) > concurrency {
		return fmt.Errorf("hcdp: %d sub-tasks exceed concurrency %d (constraint 2)", len(s.SubTasks), concurrency)
	}
	var covered int64
	lastTier := -1
	for k, st := range s.SubTasks {
		if st.Offset != covered {
			return fmt.Errorf("hcdp: sub-task %d offset %d, want %d", k, st.Offset, covered)
		}
		if st.Length <= 0 {
			return fmt.Errorf("hcdp: sub-task %d has non-positive length", k)
		}
		if k < len(s.SubTasks)-1 && st.Length%align != 0 {
			return fmt.Errorf("hcdp: non-final sub-task %d length %d unaligned (constraint 1)", k, st.Length)
		}
		if st.Tier <= lastTier && k > 0 {
			return fmt.Errorf("hcdp: sub-task tiers not strictly descending")
		}
		lastTier = st.Tier
		covered += st.Length
	}
	if covered != taskSize {
		return fmt.Errorf("hcdp: schema covers %d bytes, task is %d", covered, taskSize)
	}
	return nil
}
