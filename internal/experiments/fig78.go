package experiments

import (
	"fmt"

	"hcompress/internal/cluster"
	"hcompress/internal/core"
	"hcompress/internal/seed"
	"hcompress/internal/tier"
	"hcompress/internal/workload"
)

// systemConfig enumerates Table IV's test configurations.
type systemConfig string

// The four systems compared in Figs. 7 and 8.
const (
	configBASE systemConfig = "BASE" // vanilla PFS
	configSTWC systemConfig = "STWC" // single tier with compression
	configMTNC systemConfig = "MTNC" // multi-tiered, no compression
	configHC   systemConfig = "HC"   // HCompress
)

// allConfigs lists Table IV in presentation order.
func allConfigs() []systemConfig {
	return []systemConfig{configBASE, configSTWC, configMTNC, configHC}
}

// stwcCodec is the fixed library used by the single-tier-with-compression
// configuration. The paper does not name its choice; zlib reproduces the
// ~1.5x gain the paper reports for STWC on VPIC float checkpoints (fast
// LZ codecs barely dent float data and would make STWC a no-op) and is
// recorded in EXPERIMENTS.md as a reproduction decision.
const stwcCodec = "zlib"

// buildConfig assembles one Table IV system over the given hierarchies.
func buildConfig(cfg systemConfig, pfsOnly, multi tier.Hierarchy, truth *seed.Seed, w seed.Weights) (*stack, error) {
	switch cfg {
	case configBASE:
		return newBaselineStack(pfsOnly, truth, "")
	case configSTWC:
		return newBaselineStack(pfsOnly, truth, stwcCodec)
	case configMTNC:
		return newBaselineStack(multi, truth, "")
	case configHC:
		return newHCStack(multi, truth, w, core.Config{})
	default:
		return nil, fmt.Errorf("experiments: unknown config %q", cfg)
	}
}

// Fig7Options parameterizes the VPIC-IO scaling experiment (§V-C1):
// 10 time steps of 256MB per process, 12.5GB RAM + 25GB NVMe (data spills
// to burst buffers), compute kernel between checkpoints, write-optimized
// priorities, scaling 320..2560 processes.
type Fig7Options struct {
	Scale     int
	Ranks     []int // paper: 320, 640, 1280, 2560
	Timesteps int
	Truth     *seed.Seed
}

// PaperFig7 returns the paper's parameters at the given scale divisor.
func PaperFig7(scale int) Fig7Options {
	if scale < 1 {
		scale = 1
	}
	return Fig7Options{Scale: scale, Ranks: []int{320, 640, 1280, 2560}, Timesteps: 10}
}

// Fig7VPIC reports total time per configuration per process count.
func Fig7VPIC(o Fig7Options) (Table, error) {
	if o.Timesteps <= 0 {
		o.Timesteps = 10
	}
	if len(o.Ranks) == 0 {
		o.Ranks = []int{320, 640, 1280, 2560}
	}
	t := Table{
		Title:  fmt.Sprintf("Fig.7 VPIC-IO scaling (%d steps, scale 1/%d)", o.Timesteps, o.Scale),
		Header: []string{"procs", "config", "time_s", "vs_base"},
		Notes: []string{
			"write-only: HCompress prioritizes compression speed + ratio (Table II)",
			"paper at 2560: BASE 8967s, STWC 6010s (1.5x), MTNC 4419s (2x), HC 778s (12x over BASE, ~7x over others)",
		},
	}
	for _, paperRanks := range o.Ranks {
		ranks := scaleRanks(paperRanks, o.Scale)
		v := workload.PaperVPIC(ranks, o.Timesteps)
		attr := v.Attr()
		// §V-C1 hierarchy: 12.5 GB RAM, 25 GB NVMe, spill to burst
		// buffers; PFS below. (Capacities are cluster-wide and scale with
		// the experiment.)
		multi := aresScaled(12800*tier.MB, 25*tier.GB, 2*tier.TB, 1<<60, o.Scale)
		pfs := pfsOnlyScaled(o.Scale)
		truth := o.Truth
		if truth == nil {
			truth = seed.Builtin(multi)
		}
		var base float64
		for _, cfg := range allConfigs() {
			stk, err := buildConfig(cfg, pfs, multi, truth,
				seed.Weights{Compression: 0.5, Ratio: 0.5})
			if err != nil {
				return t, err
			}
			sim := cluster.NewSim(ranks)
			for step := 0; step < o.Timesteps; step++ {
				if _, err := sim.WritePhase(stk.io, fmt.Sprintf("f7s%d", step), 1, v.StepBytesPerRank(), attr, nil); err != nil {
					return t, fmt.Errorf("fig7 %s ranks=%d step=%d: %w", cfg, paperRanks, step, err)
				}
				if step < o.Timesteps-1 {
					// Compute phase; the buffering layers drain to lower
					// tiers concurrently (Hermes's asynchronous flushing).
					stk.drain(sim.Now(), v.ComputeSecPerStep)
					sim.Compute(v.ComputeSecPerStep)
				}
			}
			total := sim.Now()
			if cfg == configBASE {
				base = total
			}
			t.Rows = append(t.Rows, []string{
				itoa(paperRanks), string(cfg), f1(total), speedup(base, total),
			})
		}
	}
	return t, nil
}

// Fig8Options parameterizes the VPIC + BD-CATS workflow (§V-C2): VPIC
// writes 10 steps, BD-CATS reads them back, equal priorities.
type Fig8Options struct {
	Scale     int
	Ranks     []int
	Timesteps int
	Truth     *seed.Seed
}

// PaperFig8 returns the paper's parameters at the given scale divisor.
func PaperFig8(scale int) Fig8Options {
	if scale < 1 {
		scale = 1
	}
	return Fig8Options{Scale: scale, Ranks: []int{320, 640, 1280, 2560}, Timesteps: 10}
}

// Fig8Workflow reports total workflow time per configuration per process
// count.
func Fig8Workflow(o Fig8Options) (Table, error) {
	if o.Timesteps <= 0 {
		o.Timesteps = 10
	}
	if len(o.Ranks) == 0 {
		o.Ranks = []int{320, 640, 1280, 2560}
	}
	t := Table{
		Title:  fmt.Sprintf("Fig.8 VPIC + BD-CATS workflow (%d steps, scale 1/%d)", o.Timesteps, o.Scale),
		Header: []string{"procs", "config", "write_s", "read_s", "total_s", "vs_base"},
		Notes: []string{
			"read-after-write: HCompress weighs all three metrics equally",
			"paper: STWC ~1.5x, MTNC ~2.5x over BASE; HC ~7x over STWC/MTNC",
		},
	}
	for _, paperRanks := range o.Ranks {
		ranks := scaleRanks(paperRanks, o.Scale)
		v := workload.PaperVPIC(ranks, o.Timesteps)
		v.ComputeSecPerStep = 0 // the workflow figure reports I/O time
		attr := v.Attr()
		multi := aresScaled(12800*tier.MB, 25*tier.GB, 2*tier.TB, 1<<60, o.Scale)
		pfs := pfsOnlyScaled(o.Scale)
		truth := o.Truth
		if truth == nil {
			truth = seed.Builtin(multi)
		}
		var base float64
		for _, cfg := range allConfigs() {
			stk, err := buildConfig(cfg, pfs, multi, truth, seed.WeightsEqual)
			if err != nil {
				return t, err
			}
			sim := cluster.NewSim(ranks)
			var writeEnd float64
			for step := 0; step < o.Timesteps; step++ {
				if _, err := sim.WritePhase(stk.io, fmt.Sprintf("f8s%d", step), 1, v.StepBytesPerRank(), attr, nil); err != nil {
					return t, fmt.Errorf("fig8 %s ranks=%d write step=%d: %w", cfg, paperRanks, step, err)
				}
			}
			writeEnd = sim.Now()
			// BD-CATS: sequenced after VPIC finishes, reads every step.
			for step := 0; step < o.Timesteps; step++ {
				if _, err := sim.ReadPhase(stk.io, fmt.Sprintf("f8s%d", step), 1); err != nil {
					return t, fmt.Errorf("fig8 %s ranks=%d read step=%d: %w", cfg, paperRanks, step, err)
				}
			}
			total := sim.Now()
			if cfg == configBASE {
				base = total
			}
			t.Rows = append(t.Rows, []string{
				itoa(paperRanks), string(cfg), f1(writeEnd), f1(total - writeEnd), f1(total), speedup(base, total),
			})
		}
	}
	return t, nil
}
