// Command hcbench regenerates the paper's evaluation tables and figures
// (see EXPERIMENTS.md for the experiment index and paper-vs-measured
// record).
//
// Usage:
//
//	hcbench -exp fig5 -scale 64
//	hcbench -exp all -scale 64
//	hcbench -exp fig7 -scale 32 -profile    # measure codecs first
//
// -scale divides the paper's rank counts, tier capacities, bandwidths and
// lane counts by the same factor, preserving per-rank behaviour; -scale 1
// replays the paper's exact parameters (slow). With -profile, the truth
// cost table is measured by running this build's codecs instead of using
// the calibrated builtin table. Throughput, latency and per-layer
// measurements live in bench/ (see bench/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hcompress/internal/experiments"
	"hcompress/internal/seed"
	"hcompress/internal/tier"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: fig1|fig3|fig4a|fig4b|fig5|fig6|fig7|fig8|all")
		scale   = flag.Int("scale", 64, "divide paper scale by this factor (1 = full scale)")
		profile = flag.Bool("profile", false, "profile this build's codecs for the truth table (slower start)")
		seedOut = flag.String("seed", "", "optional path to write the truth seed as JSON")
	)
	flag.Parse()
	if err := run(*exp, *scale, *profile, *seedOut); err != nil {
		fmt.Fprintln(os.Stderr, "hcbench:", err)
		os.Exit(1)
	}
}

func run(exp string, scale int, profile bool, seedOut string) error {
	if scale < 1 {
		return fmt.Errorf("-scale must be >= 1")
	}
	var truth *seed.Seed
	hier := tier.Ares(64*tier.GB, 192*tier.GB, 2*tier.TB, 100*tier.TB)
	if profile {
		fmt.Println("profiling codecs (this measures every codec on every data class)...")
		s, err := seed.Generate(hier, seed.ProfileOptions{BufSize: 128 << 10})
		if err != nil {
			return err
		}
		truth = s
	} else {
		truth = seed.Builtin(hier)
	}
	if seedOut != "" {
		if err := truth.Save(seedOut); err != nil {
			return err
		}
		fmt.Printf("wrote truth seed to %s\n", seedOut)
	}

	type runner struct {
		name string
		fn   func() (experiments.Table, error)
	}
	runners := []runner{
		{"fig1", func() (experiments.Table, error) {
			o := experiments.PaperFig1(scale)
			o.Truth = truth
			return experiments.Fig1Motivation(o)
		}},
		{"fig3", func() (experiments.Table, error) {
			return experiments.Fig3Anatomy(experiments.PaperFig3())
		}},
		{"fig4a", func() (experiments.Table, error) {
			return experiments.Fig4aEngine(experiments.PaperFig4a())
		}},
		{"fig4b", func() (experiments.Table, error) {
			return experiments.Fig4bCCP(experiments.PaperFig4b())
		}},
		{"fig5", func() (experiments.Table, error) {
			o := experiments.PaperFig5(scale)
			o.Truth = truth
			return experiments.Fig5CompressionOnTiering(o)
		}},
		{"fig6", func() (experiments.Table, error) {
			o := experiments.PaperFig6(scale)
			o.Truth = truth
			return experiments.Fig6TieringOnCompression(o)
		}},
		{"fig7", func() (experiments.Table, error) {
			o := experiments.PaperFig7(scale)
			o.Truth = truth
			return experiments.Fig7VPIC(o)
		}},
		{"fig8", func() (experiments.Table, error) {
			o := experiments.PaperFig8(scale)
			o.Truth = truth
			return experiments.Fig8Workflow(o)
		}},
	}
	want := strings.ToLower(exp)
	found := false
	for _, r := range runners {
		if want != "all" && want != r.name {
			continue
		}
		found = true
		tb, err := r.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		tb.Fprint(os.Stdout)
	}
	if !found {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
