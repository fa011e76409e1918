package core

import (
	"errors"
	"testing"

	"hcompress/internal/seed"
	"hcompress/internal/tier"
)

// Degraded-mode planning: offline tiers must be masked out of the Place
// DP, and the availability flip must invalidate both the memo table and
// the whole-schema plan cache so a cached schema never targets a dead
// tier.

func takeOffline(f *fixture, tierIdx int) {
	for i := 0; i < 3; i++ {
		f.mon.Observe(0, tierIdx, errors.New("injected"))
	}
}

func TestPlanMasksOfflineTier(t *testing.T) {
	f := newFixture(t, tier.GB, tier.GB, tier.GB, tier.TB)
	e := f.engine(t, Config{Weights: seed.WeightsEqual})

	// Warm plan: a small task lands on RAM.
	sc, err := e.Plan(0, textAttr(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if sc.SubTasks[0].Tier != 0 {
		t.Fatalf("warm plan should target RAM, got tier %d", sc.SubTasks[0].Tier)
	}

	// RAM dies. The same planning inputs must now avoid tier 0 — even
	// though the plan cache served the previous schema (the epoch bump
	// from the stamp change invalidates it).
	takeOffline(f, 0)
	sc2, err := e.Plan(0, textAttr(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sc2.SubTasks {
		if st.Tier == 0 {
			t.Fatalf("schema targets offline tier: %+v", sc2.SubTasks)
		}
	}
}

func TestPlanFailsWhenAllTiersOffline(t *testing.T) {
	f := newFixture(t, tier.GB, tier.GB, tier.GB, tier.TB)
	e := f.engine(t, Config{Weights: seed.WeightsEqual})
	for ti := 0; ti < f.hier.Len(); ti++ {
		takeOffline(f, ti)
	}
	if _, err := e.Plan(0, textAttr(), 1<<20); !errors.Is(err, errNoSpace) {
		t.Fatalf("want ErrNoSpace with every tier offline, got %v", err)
	}
}

func TestRecoveredTierIsReplannedOnto(t *testing.T) {
	f := newFixture(t, tier.GB, tier.GB, tier.GB, tier.TB)
	e := f.engine(t, Config{Weights: seed.WeightsEqual})
	takeOffline(f, 0)
	sc, err := e.Plan(0, textAttr(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if sc.SubTasks[0].Tier == 0 {
		t.Fatal("plan targeted offline RAM")
	}
	// A success heals the tier; planning must use it again.
	f.mon.Observe(1, 0, nil)
	sc2, err := e.Plan(1, textAttr(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if sc2.SubTasks[0].Tier != 0 {
		t.Fatalf("recovered RAM should be planned onto again, got tier %d", sc2.SubTasks[0].Tier)
	}
}
