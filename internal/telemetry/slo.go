package telemetry

import (
	"sort"
	"sync"
	"time"
)

// The SLO engine keeps rolling-window good/total counts per (tenant,
// class) series and computes error-budget burn rates against configured
// objectives. It is deliberately simple — a fixed ring of time buckets
// per series, advanced lazily on Record/Report — so recording is a few
// integer ops under one mutex and never allocates after the first
// request of a series.

// SLOOptions configures the engine. Zero values select the defaults
// noted on each field.
type SLOOptions struct {
	// Objective is the targeted fraction of good requests in the window
	// (default 0.999). A request is good when it did not fail and its
	// latency is at or under LatencyTarget.
	Objective float64
	// LatencyTarget is the per-request latency goal (default 250ms).
	LatencyTarget time.Duration
	// Window is the rolling measurement window (default 60s).
	Window time.Duration
	// buckets is the ring granularity inside the window (default 30;
	// tests pick their own).
	buckets int
	// Now is the clock, injectable for deterministic tests
	// (default time.Now).
	Now func() time.Time
}

func (o SLOOptions) withDefaults() SLOOptions {
	if o.Objective <= 0 || o.Objective >= 1 {
		o.Objective = 0.999
	}
	if o.LatencyTarget <= 0 {
		o.LatencyTarget = 250 * time.Millisecond
	}
	if o.Window <= 0 {
		o.Window = time.Minute
	}
	if o.buckets <= 0 {
		o.buckets = 30
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// SLOStatus is one (tenant, class) series' report: window counts, the
// good ratio, and the error-budget burn rate. BurnRate is the window's
// bad fraction divided by the budget (1 - objective): 1.0 means the
// budget is being consumed exactly as fast as the objective allows,
// above 1.0 means the tenant is on track to blow its SLO.
type SLOStatus struct {
	Tenant        string  `json:"tenant"`
	Class         string  `json:"class"`
	Objective     float64 `json:"objective"`
	LatencyTarget float64 `json:"latencyTargetSecs"`
	WindowSeconds float64 `json:"windowSecs"`
	Good          int64   `json:"good"`
	Total         int64   `json:"total"`
	GoodRatio     float64 `json:"goodRatio"`
	BurnRate      float64 `json:"burnRate"`
}

type sloKey struct{ tenant, class string }

type sloSeries struct {
	good, total []int64 // ring, one slot per bucket
	cur         int     // index of the current bucket
	curStart    time.Time
	goodC       *Counter // hc_slo_good_total, lifetime
	totalC      *Counter // hc_slo_requests_total, lifetime
	burnG       *Gauge   // hc_slo_burn_rate, set on Report
	ratioG      *Gauge   // hc_slo_good_ratio, set on Report
}

// SLOEngine tracks SLO compliance per (tenant, class). All methods are
// safe for concurrent use. reg may be nil (no hc_slo_* series exported).
type SLOEngine struct {
	opt    SLOOptions
	bucket time.Duration
	reg    *Registry

	mu     sync.Mutex
	series map[sloKey]*sloSeries
}

// NewSLOEngine builds an engine with opt (zero fields defaulted),
// exporting hc_slo_* series on reg when non-nil.
func NewSLOEngine(opt SLOOptions, reg *Registry) *SLOEngine {
	opt = opt.withDefaults()
	return &SLOEngine{
		opt:    opt,
		bucket: opt.Window / time.Duration(opt.buckets),
		reg:    reg,
		series: make(map[sloKey]*sloSeries),
	}
}

// seriesFor returns (creating on first use) the ring for one key.
// Caller holds e.mu.
func (e *SLOEngine) seriesFor(k sloKey, now time.Time) *sloSeries {
	sr, ok := e.series[k]
	if !ok {
		sr = &sloSeries{
			good:     make([]int64, e.opt.buckets),
			total:    make([]int64, e.opt.buckets),
			curStart: now,
		}
		if e.reg != nil {
			ls := []Label{L("tenant", k.tenant), L("class", k.class)}
			sr.goodC = e.reg.Counter("hc_slo_good_total", "requests meeting the SLO (no error, latency under target)", ls...)
			sr.totalC = e.reg.Counter("hc_slo_requests_total", "requests counted against the SLO", ls...)
			sr.burnG = e.reg.Gauge("hc_slo_burn_rate", "error-budget burn rate over the rolling window (1.0 = burning exactly at budget)", ls...)
			sr.ratioG = e.reg.Gauge("hc_slo_good_ratio", "fraction of good requests over the rolling window", ls...)
		}
		e.series[k] = sr
	}
	return sr
}

// advance rotates the ring so sr.cur covers now, zeroing skipped
// buckets. Caller holds e.mu.
func (e *SLOEngine) advance(sr *sloSeries, now time.Time) {
	steps := int(now.Sub(sr.curStart) / e.bucket)
	if steps <= 0 {
		return
	}
	if steps > e.opt.buckets {
		steps = e.opt.buckets
		sr.curStart = now
	} else {
		sr.curStart = sr.curStart.Add(time.Duration(steps) * e.bucket)
	}
	for i := 0; i < steps; i++ {
		sr.cur = (sr.cur + 1) % e.opt.buckets
		sr.good[sr.cur] = 0
		sr.total[sr.cur] = 0
	}
}

// Record counts one served request. failed marks server-side failures;
// a request is good when it did not fail and latency is at or under the
// configured target.
func (e *SLOEngine) Record(tenant, class string, latency time.Duration, failed bool) {
	if e == nil {
		return
	}
	good := !failed && latency <= e.opt.LatencyTarget
	now := e.opt.Now()
	e.mu.Lock()
	sr := e.seriesFor(sloKey{tenant, class}, now)
	e.advance(sr, now)
	sr.total[sr.cur]++
	if good {
		sr.good[sr.cur]++
	}
	e.mu.Unlock()
	sr.totalC.Inc()
	if good {
		sr.goodC.Inc()
	}
}

// Report returns every series' window status, sorted by tenant then
// class for stable output, and refreshes the hc_slo_* gauges. A nil
// engine reports nothing.
func (e *SLOEngine) Report() []SLOStatus {
	if e == nil {
		return nil
	}
	now := e.opt.Now()
	e.mu.Lock()
	out := make([]SLOStatus, 0, len(e.series))
	for k, sr := range e.series {
		e.advance(sr, now)
		var good, total int64
		for i := range sr.total {
			good += sr.good[i]
			total += sr.total[i]
		}
		st := SLOStatus{
			Tenant:        k.tenant,
			Class:         k.class,
			Objective:     e.opt.Objective,
			LatencyTarget: e.opt.LatencyTarget.Seconds(),
			WindowSeconds: e.opt.Window.Seconds(),
			Good:          good,
			Total:         total,
			GoodRatio:     1,
		}
		if total > 0 {
			st.GoodRatio = float64(good) / float64(total)
			st.BurnRate = (1 - st.GoodRatio) / (1 - e.opt.Objective)
		}
		sr.ratioG.Set(st.GoodRatio)
		sr.burnG.Set(st.BurnRate)
		out = append(out, st)
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].Class < out[j].Class
	})
	return out
}
