package telemetry

import (
	"testing"
	"time"
)

// sloClock is the injectable test clock: advance it explicitly to step
// across bucket boundaries.
type sloClock struct{ now time.Time }

func (c *sloClock) Now() time.Time { return c.now }

func newTestEngine(reg *Registry) (*SLOEngine, *sloClock) {
	clk := &sloClock{now: time.Unix(1000, 0)}
	e := NewSLOEngine(SLOOptions{
		Objective:     0.9,
		LatencyTarget: 100 * time.Millisecond,
		Window:        10 * time.Second,
		buckets:       10,
		Now:           clk.Now,
	}, reg)
	return e, clk
}

// TestSLORecordAndReport: good/bad classification (failure or latency
// over target), window counts, good ratio, and the burn-rate formula
// (bad fraction over error budget).
func TestSLORecordAndReport(t *testing.T) {
	e, _ := newTestEngine(nil)
	for i := 0; i < 8; i++ {
		e.Record("acme", "compress", 10*time.Millisecond, false) // good
	}
	e.Record("acme", "compress", 500*time.Millisecond, false) // slow: bad
	e.Record("acme", "compress", 10*time.Millisecond, true)   // failed: bad

	rep := e.Report()
	if len(rep) != 1 {
		t.Fatalf("%d series, want 1", len(rep))
	}
	st := rep[0]
	if st.Tenant != "acme" || st.Class != "compress" {
		t.Fatalf("series identity %+v", st)
	}
	if st.Good != 8 || st.Total != 10 {
		t.Fatalf("good/total = %d/%d, want 8/10", st.Good, st.Total)
	}
	if st.GoodRatio != 0.8 {
		t.Errorf("good ratio %v, want 0.8", st.GoodRatio)
	}
	// Bad fraction 0.2 against a 0.1 budget: burning at 2x.
	if st.BurnRate < 1.999 || st.BurnRate > 2.001 {
		t.Errorf("burn rate %v, want 2.0", st.BurnRate)
	}
	if st.Objective != 0.9 || st.LatencyTarget != 0.1 || st.WindowSeconds != 10 {
		t.Errorf("configured objectives not echoed: %+v", st)
	}
}

// TestSLOWindowRotation: requests age out of the rolling window as the
// injected clock advances; a full window of silence zeroes the series.
func TestSLOWindowRotation(t *testing.T) {
	e, clk := newTestEngine(nil)
	e.Record("acme", "compress", time.Millisecond, true) // one bad request
	if st := e.Report()[0]; st.Total != 1 || st.Good != 0 {
		t.Fatalf("initial window %+v", st)
	}
	// Half a window later the bad request still counts.
	clk.now = clk.now.Add(5 * time.Second)
	e.Record("acme", "compress", time.Millisecond, false)
	if st := e.Report()[0]; st.Total != 2 || st.Good != 1 {
		t.Fatalf("mid-window %+v", st)
	}
	// A full window past the bad request, only the good one remains.
	clk.now = clk.now.Add(6 * time.Second)
	if st := e.Report()[0]; st.Total != 1 || st.Good != 1 || st.BurnRate != 0 {
		t.Fatalf("after rotation %+v", st)
	}
	// A long silence empties the window entirely; ratio degrades to 1.
	clk.now = clk.now.Add(time.Hour)
	if st := e.Report()[0]; st.Total != 0 || st.GoodRatio != 1 || st.BurnRate != 0 {
		t.Fatalf("after full expiry %+v", st)
	}
}

// TestSLOReportOrdering: multiple series report sorted by tenant then
// class, so the JSON endpoint and smoke tests see stable output.
func TestSLOReportOrdering(t *testing.T) {
	e, _ := newTestEngine(nil)
	for _, s := range [][2]string{
		{"zeta", "compress"}, {"acme", "decompress"}, {"acme", "compress"}, {"mid", "delete"},
	} {
		e.Record(s[0], s[1], time.Millisecond, false)
	}
	rep := e.Report()
	var got [][2]string
	for _, st := range rep {
		got = append(got, [2]string{st.Tenant, st.Class})
	}
	want := [][2]string{
		{"acme", "compress"}, {"acme", "decompress"}, {"mid", "delete"}, {"zeta", "compress"},
	}
	if len(got) != len(want) {
		t.Fatalf("%d series, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("series %d is %v, want %v", i, got[i], want[i])
		}
	}
}

// TestSLOGauges: with a registry attached, the engine exports lifetime
// hc_slo_*_total counters on Record and refreshes the window gauges on
// Report.
func TestSLOGauges(t *testing.T) {
	reg := New()
	e, _ := newTestEngine(reg)
	for i := 0; i < 3; i++ {
		e.Record("acme", "compress", time.Millisecond, false)
	}
	e.Record("acme", "compress", time.Millisecond, true)
	e.Report()

	snap := reg.Snapshot()
	if got := snap.Counters[`hc_slo_good_total{tenant="acme",class="compress"}`]; got != 3 {
		t.Errorf("hc_slo_good_total %d, want 3", got)
	}
	if got := snap.Counters[`hc_slo_requests_total{tenant="acme",class="compress"}`]; got != 4 {
		t.Errorf("hc_slo_requests_total %d, want 4", got)
	}
	if got := snap.Gauges[`hc_slo_good_ratio{tenant="acme",class="compress"}`]; got != 0.75 {
		t.Errorf("hc_slo_good_ratio %v, want 0.75", got)
	}
	// Bad fraction 0.25 over the 0.1 budget.
	if got := snap.Gauges[`hc_slo_burn_rate{tenant="acme",class="compress"}`]; got < 2.499 || got > 2.501 {
		t.Errorf("hc_slo_burn_rate %v, want 2.5", got)
	}
}

// TestSLONilSafety: a nil engine (telemetry off) absorbs records and
// reports nothing — the service layer never branches.
func TestSLONilSafety(t *testing.T) {
	var e *SLOEngine
	e.Record("acme", "compress", time.Millisecond, false)
	if rep := e.Report(); rep != nil {
		t.Fatalf("nil engine reported %v", rep)
	}
}
