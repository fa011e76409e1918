package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hcompress/internal/analyzer"
	"hcompress/internal/seed"
	"hcompress/internal/stats"
	"hcompress/internal/tier"
)

// TestPlanIndependentOfHistory pins that a plan depends only on the task
// (data type, distribution, size), the weights in force and the state of
// the hierarchy — never on what the engine planned before. One long-lived
// engine is driven through a seeded mix of plans over every (type, dist)
// pair, store traffic that moves the capacity stamp, and weight changes;
// after every plan its schema must equal the one a freshly built engine
// over the same store, predictor and weights returns.
func TestPlanIndependentOfHistory(t *testing.T) {
	f := newFixture(t, 8*tier.MB, 32*tier.MB, 128*tier.MB, tier.GB)
	presets := []seed.Weights{seed.WeightsEqual, weightsAsync, weightsArchival, {Decompression: 1}}
	w := presets[0]
	e := f.engine(t, Config{Weights: w})
	// Aligned and unaligned sizes, from one page to several RAM tiers.
	sizes := []int64{16 << 10, 64<<10 + 123, 1 << 20, 3<<20 + 7, 12 << 20, 40<<20 + 4095}
	types, dists := stats.AllTypes(), stats.AllDists()
	rng := rand.New(rand.NewSource(27))

	steps := 800
	if testing.Short() {
		steps = 300
	}
	var live []string
	diverged, first := 0, ""
	for i := 0; i < steps; i++ {
		switch r := rng.Intn(10); {
		case r == 0:
			w = presets[rng.Intn(len(presets))]
			e.SetWeights(w)
		case r <= 3 && len(live) > 0 && rng.Intn(2) == 0:
			k := rng.Intn(len(live))
			if err := f.st.Delete(live[k]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		case r <= 3:
			// Whole capacity-stamp buckets (1/64 of the tier), so equal
			// stamps mean equal free space and a cached plan is exactly
			// what a fresh DP over the same store returns.
			l := rng.Intn(f.hier.Len())
			key := fmt.Sprintf("fill%d", i)
			n := int64(1+rng.Intn(8)) * (f.hier.Tiers[l].Capacity / 64)
			if _, err := f.st.Put(0, l, key, nil, n); err == nil {
				live = append(live, key)
			}
		}
		attr := analyzer.Result{Type: types[rng.Intn(len(types))], Dist: dists[rng.Intn(len(dists))]}
		size := sizes[rng.Intn(len(sizes))]
		got, err1 := e.Plan(0, attr, size)
		want, err2 := f.engine(t, Config{Weights: w}).Plan(0, attr, size)
		if (err1 == nil) == (err2 == nil) && reflect.DeepEqual(got, want) {
			continue
		}
		if diverged++; diverged == 1 {
			first = fmt.Sprintf("step %d, %v/%v, %d bytes: got %+v (%v), fresh engine %+v (%v)",
				i, attr.Type, attr.Dist, size, got.SubTasks, err1, want.SubTasks, err2)
		}
	}
	if diverged > 0 {
		t.Errorf("%d of %d plans differ from a fresh engine's; first at %s", diverged, steps, first)
	}
}
