package cluster

import (
	"testing"

	"hcompress/internal/analyzer"
	"hcompress/internal/core"
	"hcompress/internal/hermes"
	"hcompress/internal/manager"
	"hcompress/internal/monitor"
	"hcompress/internal/predictor"
	"hcompress/internal/seed"
	"hcompress/internal/stats"
	"hcompress/internal/store"
	"hcompress/internal/tier"
)

func modeledHC(t *testing.T, h tier.Hierarchy) *HCClient {
	t.Helper()
	st, err := store.Open(h, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	truth := seed.Builtin(h)
	pred := predictor.New(truth)
	mon := monitor.New(st, 0)
	eng, err := core.New(pred, mon, core.Config{Weights: seed.WeightsEqual})
	if err != nil {
		t.Fatal(err)
	}
	return &HCClient{Eng: eng, Mgr: manager.New(st, pred, manager.Options{Oracle: manager.ModelOracle{Truth: truth}}), Mon: mon}
}

func floatAttr() analyzer.Result {
	return analyzer.Result{Type: stats.TypeFloat, Dist: stats.Gamma}
}

func TestWriteReadPhases(t *testing.T) {
	h := tier.Ares(tier.GB, 4*tier.GB, 16*tier.GB, tier.TB)
	hc := modeledHC(t, h)
	sim := NewSim(8)
	ws, err := sim.WritePhase(hc, "w", 4, 1<<20, floatAttr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Tasks != 32 {
		t.Errorf("tasks %d", ws.Tasks)
	}
	if ws.Bytes != 32<<20 {
		t.Errorf("bytes %d", ws.Bytes)
	}
	if ws.Stored <= 0 || ws.Makespan <= 0 {
		t.Errorf("stats %+v", ws)
	}
	rs, err := sim.ReadPhase(hc, "w", 4)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Tasks != 32 || rs.Makespan <= 0 {
		t.Errorf("read stats %+v", rs)
	}
	if rs.Bytes != 32<<20 {
		t.Errorf("read bytes %d", rs.Bytes)
	}
}

func TestBarrierAndCompute(t *testing.T) {
	sim := NewSim(3)
	sim.Compute(5)
	if sim.Now() != 5 {
		t.Errorf("now %v", sim.Now())
	}
	sim.Barrier()
	sim.Compute(1)
	if sim.Now() != 6 {
		t.Errorf("now %v", sim.Now())
	}
	if sim.Ranks() != 3 {
		t.Errorf("ranks %d", sim.Ranks())
	}
	if NewSim(0).Ranks() != 1 {
		t.Error("zero ranks should clamp to 1")
	}
}

func TestHCClientReplansOnStaleCapacity(t *testing.T) {
	// A monitor with a long refresh interval plans against stale data;
	// the HCClient must recover via ForceRefresh + replan.
	h := tier.Hierarchy{Tiers: []tier.Spec{
		{Name: "ram", Capacity: 8 << 20, Latency: 1e-6, Bandwidth: 1e9, Lanes: 1},
		{Name: "pfs", Capacity: 1 << 40, Latency: 1e-3, Bandwidth: 1e8, Lanes: 1},
	}}
	st, _ := store.Open(h, store.Options{})
	truth := seed.Builtin(h)
	pred := predictor.New(truth)
	mon := monitor.New(st, 1e9) // effectively never refreshes on its own
	eng, _ := core.New(pred, mon, core.Config{Weights: seed.WeightsEqual, DisableCompression: true})
	hc := &HCClient{Eng: eng, Mgr: manager.New(st, pred, manager.Options{Oracle: manager.ModelOracle{Truth: truth}}), Mon: mon}
	attr := floatAttr()
	// Each write fills RAM; with a stale monitor the later writes still
	// plan for RAM, fail placement (the manager spills), or replan.
	for i := 0; i < 6; i++ {
		if _, err := hc.Write(0, workload0(i), nil, 4<<20, attr); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
}

func workload0(i int) string { return "t" + string(rune('a'+i)) }

func TestBaselineAsIOClient(t *testing.T) {
	h := tier.Ares(tier.GB, tier.GB, tier.GB, tier.TB)
	st, _ := store.Open(h, store.Options{})
	truth := seed.Builtin(h)
	b, err := hermes.New(st, "snappy", manager.ModelOracle{Truth: truth})
	if err != nil {
		t.Fatal(err)
	}
	var io IOClient = b
	sim := NewSim(4)
	ws, err := sim.WritePhase(io, "b", 2, 1<<20, floatAttr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Tasks != 8 || ws.Stored >= ws.Bytes {
		t.Errorf("baseline stats %+v", ws)
	}
	if _, err := sim.ReadPhase(io, "b", 2); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicMakespan(t *testing.T) {
	run := func() float64 {
		h := tier.Ares(tier.GB, tier.GB, tier.GB, tier.TB)
		hc := modeledHC(t, h)
		sim := NewSim(16)
		if _, err := sim.WritePhase(hc, "d", 8, 512<<10, floatAttr(), nil); err != nil {
			t.Fatal(err)
		}
		return sim.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}
