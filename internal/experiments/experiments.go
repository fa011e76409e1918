// Package experiments reproduces every table and figure of the paper's
// evaluation (§V). Each Fig* function builds the workload, the hierarchy
// configuration, and the systems under test (Table IV: BASE, STWC, MTNC,
// HCompress), runs them in the cluster simulator, and returns a Table of
// the same rows/series the paper reports.
//
// All experiments accept a Scale: the paper's rank counts and capacities
// are divided by it, which preserves per-rank behaviour (the ratio of data
// volume to tier capacity is scale-invariant) while letting the suite run
// on one machine in seconds. Scale = 1 replays the paper's exact
// parameters. EXPERIMENTS.md records paper-versus-measured values.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"hcompress/internal/cluster"
	"hcompress/internal/core"
	"hcompress/internal/hermes"
	"hcompress/internal/manager"
	"hcompress/internal/monitor"
	"hcompress/internal/predictor"
	"hcompress/internal/seed"
	"hcompress/internal/store"
	"hcompress/internal/tier"
)

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table with aligned columns.
func (t Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func gb(v int64) string    { return fmt.Sprintf("%.1f", float64(v)/float64(tier.GB)) }
func itoa(v int) string    { return fmt.Sprintf("%d", v) }
func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func sci(v float64) string { return fmt.Sprintf("%.3g", v) }

// stack bundles one system under test.
type stack struct {
	st  *store.Store
	io  cluster.IOClient
	hc  *cluster.HCClient // non-nil for HCompress stacks
	bl  *hermes.Baseline  // non-nil for baseline stacks
	prd *predictor.CCP
}

// newHCStack builds a modeled HCompress pipeline over hier. truth is the
// measured cost table the oracle charges; the predictor bootstraps from
// the same seed (the profiler ran first, as in the paper).
func newHCStack(hier tier.Hierarchy, truth *seed.Seed, w seed.Weights, cfg core.Config) (*stack, error) {
	st, err := store.Open(hier, store.Options{})
	if err != nil {
		return nil, err
	}
	pred := predictor.New(truth)
	mon := monitor.New(st, 0)
	cfg.Weights = w
	eng, err := core.New(pred, mon, cfg)
	if err != nil {
		return nil, err
	}
	hc := &cluster.HCClient{
		Eng: eng,
		Mgr: manager.New(st, pred, manager.Options{Oracle: manager.ModelOracle{Truth: truth}}),
		Mon: mon,
	}
	return &stack{st: st, io: hc, hc: hc, prd: pred}, nil
}

// newBaselineStack builds a modeled Hermes-style baseline with a fixed
// codec ("" / "none" disables compression).
func newBaselineStack(hier tier.Hierarchy, truth *seed.Seed, codecName string) (*stack, error) {
	st, err := store.Open(hier, store.Options{})
	if err != nil {
		return nil, err
	}
	bl, err := hermes.New(st, codecName, manager.ModelOracle{Truth: truth})
	if err != nil {
		return nil, err
	}
	return &stack{st: st, io: bl, bl: bl}, nil
}

// drain runs the stack's asynchronous flushing during an idle window of
// the given virtual duration (no-op for single-tier stacks).
func (s *stack) drain(now, window float64) {
	switch {
	case s.hc != nil:
		s.hc.Mgr.Drain(now, window)
	case s.bl != nil:
		s.bl.Drain(now, window)
	}
}

// scaleCap divides a capacity by scale, keeping 4 KiB granularity.
func scaleCap(c int64, scale int) int64 {
	v := c / int64(scale)
	if v < 4096 {
		v = 4096
	}
	return v &^ 4095
}

func scaleRanks(r, scale int) int {
	v := r / scale
	if v < 1 {
		v = 1
	}
	return v
}

// aresScaled returns the Ares hierarchy with capacities, aggregate
// bandwidths, and lane counts all divided by scale. Because the rank count
// is divided by the same factor, per-rank service rates and the ratio of
// data volume to capacity — the two quantities every result depends on —
// are preserved exactly, and absolute times stay comparable to the paper.
func aresScaled(ram, nvme, bb, pfs int64, scale int) tier.Hierarchy {
	h := tier.Ares(scaleCap(ram, scale), scaleCap(nvme, scale), scaleCap(bb, scale), scaleCap(pfs, scale))
	for i := range h.Tiers {
		h.Tiers[i].Bandwidth /= float64(scale)
		h.Tiers[i].Lanes = h.Tiers[i].Lanes / scale
		if h.Tiers[i].Lanes < 1 {
			h.Tiers[i].Lanes = 1
		}
	}
	return h
}

// speedup formats a baseline/value ratio.
func speedup(base, v float64) string {
	if v <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", base/v)
}
