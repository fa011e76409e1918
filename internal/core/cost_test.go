package core

import (
	"testing"

	"hcompress/internal/monitor"
	"hcompress/internal/predictor"
	"hcompress/internal/seed"
	"hcompress/internal/store"
	"hcompress/internal/tier"
)

// costHier is a fast-but-expensive tier over a slow-but-cheap cloud
// tier: the shape the dollar term of the objective exists to arbitrate.
func costHier() tier.Hierarchy {
	return tier.Hierarchy{Tiers: []tier.Spec{
		{Name: "ram", Capacity: tier.GB, Latency: 0, Bandwidth: 10e9, Lanes: 2,
			CostPerGBMonth: 1000},
		{Name: "cloud", Capacity: tier.TB, Latency: 5e-3, Bandwidth: 1e9, Lanes: 4,
			Backend: tier.BackendCloud, CostPerGBMonth: 0.01, EgressCostPerGB: 0.01},
	}}
}

func planTiers(t *testing.T, w seed.Weights) map[int]int64 {
	t.Helper()
	h := costHier()
	st, err := store.Open(h, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(predictor.New(seed.Builtin(h)), monitor.New(st, 0), Config{Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := e.Plan(0, textAttr(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	bytesOn := map[int]int64{}
	for _, sub := range sc.SubTasks {
		bytesOn[sub.Tier] += sub.Length
	}
	return bytesOn
}

// TestCostWeightShiftsPlacement is the acceptance check for the dollar
// objective: with zero Cost weight the planner is purely time-driven and
// lands on the fast tier; with the weight dominated by Cost the same
// request lands on the cheap tier instead.
func TestCostWeightShiftsPlacement(t *testing.T) {
	timeOnly := planTiers(t, seed.WeightsEqual)
	if timeOnly[0] == 0 || timeOnly[1] != 0 {
		t.Fatalf("time-only objective placed bytes as %v, want all on fast tier 0", timeOnly)
	}
	costHeavy := planTiers(t, seed.Weights{Compression: 0.05, Decompression: 0.05, Ratio: 0.05, Cost: 0.85})
	if costHeavy[1] == 0 || costHeavy[0] != 0 {
		t.Fatalf("cost-heavy objective placed bytes as %v, want all on cheap tier 1", costHeavy)
	}
}
