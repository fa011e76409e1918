// Package telemetry is the observability substrate shared by every
// pipeline component: a lock-cheap metrics registry (atomic counters,
// gauges, and fixed-bucket histograms), a Prometheus text-format
// exposition, a typed snapshot for tests, and a JSONL sink for trace
// spans and decision-audit records (trace.go).
//
// The design constraint is the staged concurrency pipeline: telemetry
// must never reintroduce the global lock PR 1 removed. Instruments are
// therefore plain atomics handed out once at registration time — the hot
// path is an atomic add on a handle the component already holds, with no
// map lookup and no registry lock. The registry mutex guards
// registration and exposition only.
//
// Everything is nil-safe: a nil *Registry hands out nil instruments, and
// every instrument method no-ops on a nil receiver. Components keep
// instrument fields that are simply nil when telemetry is off, so the
// disabled cost is one predictable branch per event.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (e.g. {tier, "nvme"}). Labels are fixed
// at registration; there is no dynamic label path on the hot side.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for building a Label.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// Counter is a monotonically increasing int64.
type Counter struct {
	v      atomic.Int64
	labels []Label
}

// Add increments the counter. No-op on nil.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can move both ways.
type Gauge struct {
	bits   atomic.Uint64
	fn     atomic.Pointer[func() float64] // GaugeFunc's source; nil for a set gauge
	labels []Label
}

// Set stores v. No-op on nil.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add moves the gauge by v (CAS loop). No-op on nil.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if fn := g.fn.Load(); fn != nil {
		return (*fn)()
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with Prometheus "le" semantics:
// bucket i counts observations <= bounds[i], plus an implicit +Inf
// bucket. Observations are two atomic adds and one atomic float update;
// quantiles are estimated at read time by linear interpolation within the
// winning bucket (the same estimate histogram_quantile computes).
type Histogram struct {
	bounds  []float64 // strictly increasing upper bounds, +Inf implicit
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
	labels  []Label
}

// Observe records v. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count reads the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the running sum (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (q in [0,1]) from the buckets. An
// observation in the +Inf bucket reports the largest finite bound.
// Concurrent observers make the estimate approximate, never wrong by
// more than a bucket.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			if i == len(h.bounds) { // +Inf bucket
				return h.bounds[len(h.bounds)-1]
			}
			upper := h.bounds[i]
			return lower + (upper-lower)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}

// Shared bucket layouts, so the same quantity is always comparable.
var (
	// SecondsBuckets spans 1µs..10s — codec, I/O, and op latencies.
	SecondsBuckets = []float64{
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
	// RatioBuckets spans compression ratios 1x..128x.
	RatioBuckets = []float64{1, 1.1, 1.25, 1.5, 2, 2.5, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32, 48, 64, 96, 128}
	// RelErrBuckets spans relative errors 0.1%..10x.
	RelErrBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	// DepthBuckets counts small integers (plan depth, batch sizes).
	DepthBuckets = []float64{1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 48, 64}
)

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// family groups every labeled series registered under one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series map[string]any // label-key string -> instrument
}

// Registry hands out instruments and renders expositions. The zero value
// is not usable; call New. A nil *Registry is the "telemetry off" value:
// it hands out nil instruments and writes empty expositions.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	base     []Label // appended to every registration (e.g. shard="2")
}

// New creates an empty registry. Any base labels given are appended to
// every series registered through it — how a router stamps each shard's
// whole instrument tree with shard="N" without any component knowing it
// is sharded. No base labels (the common case) changes nothing: series
// names are byte-identical to an unlabeled registry.
func New(base ...Label) *Registry {
	return &Registry{families: make(map[string]*family), base: base}
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup finds or creates the series for (name, labels), creating the
// family on first use via mk. It panics when a name is reused with a
// different metric kind — that is a programming error, not runtime state.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label, mk func() any) any {
	if len(r.base) > 0 {
		labels = append(append(make([]Label, 0, len(labels)+len(r.base)), labels...), r.base...)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]any)}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: %s registered as %s and %s", name, f.kind, kind))
	}
	lk := labelKey(labels)
	inst, ok := f.series[lk]
	if !ok {
		inst = mk()
		f.series[lk] = inst
	}
	return inst
}

// Counter returns the counter series for (name, labels), registering it
// on first use. Returns nil on a nil registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, counterKind, labels, func() any {
		return &Counter{labels: labels}
	}).(*Counter)
}

// Gauge returns the gauge series for (name, labels). Nil on nil registry.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, gaugeKind, labels, func() any {
		return &Gauge{labels: labels}
	}).(*Gauge)
}

// GaugeFunc registers the gauge series for (name, labels) as fn's result,
// read whenever the series is: for a value another component already
// keeps. Registering the series again replaces fn. No-op on nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.Gauge(name, help, labels...).fn.Store(&fn)
}

// Histogram returns the histogram series for (name, labels) with the
// given bucket upper bounds (the first registration's bounds win for the
// whole family). Nil on nil registry.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, histogramKind, labels, func() any {
		h := &Histogram{bounds: bounds, labels: labels}
		h.counts = make([]atomic.Int64, len(bounds)+1)
		return h
	}).(*Histogram)
}

// HistogramStat is the typed summary of one histogram series.
type HistogramStat struct {
	Count int64
	Sum   float64
	P50   float64
	P90   float64
	P99   float64
}

// Snapshot is the typed dump of every registered series, keyed by the
// canonical series name ("name{k=\"v\"}").
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistogramStat
}

// Snapshot captures every series. Concurrent writers keep running;
// values are each atomically read but the snapshot is not a global
// atomic cut (same contract as the System Monitor's tier view).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramStat),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		for lk, inst := range f.series {
			key := f.name
			if lk != "" {
				key = f.name + "{" + lk + "}"
			}
			switch v := inst.(type) {
			case *Counter:
				s.Counters[key] = v.Value()
			case *Gauge:
				s.Gauges[key] = v.Value()
			case *Histogram:
				s.Histograms[key] = HistogramStat{
					Count: v.Count(),
					Sum:   v.Sum(),
					P50:   v.Quantile(0.50),
					P90:   v.Quantile(0.90),
					P99:   v.Quantile(0.99),
				}
			}
		}
	}
	return s
}

// WritePrometheus renders the registry in Prometheus text format
// (version 0.0.4), families and series sorted by name so output is
// stable and diffable. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return MergePrometheus(w, r)
}

// MergePrometheus renders several registries as one Prometheus text
// exposition: families with the same name across registries collapse
// into one HELP/TYPE block whose series are concatenated and sorted.
// The callers' registries must keep their series disjoint (the router
// does this with per-shard base labels); a duplicate series would be
// emitted twice. Nil registries are skipped.
func MergePrometheus(w io.Writer, regs ...*Registry) error {
	type entry struct {
		lk   string
		inst any
	}
	merged := make(map[string]*family)
	series := make(map[string][]entry)
	var names []string
	for _, r := range regs {
		if r == nil {
			continue
		}
		r.mu.Lock()
		for name, f := range r.families {
			if m, ok := merged[name]; ok {
				if m.kind != f.kind {
					r.mu.Unlock()
					return fmt.Errorf("telemetry: merging %s: registered as %s and %s", name, m.kind, f.kind)
				}
			} else {
				merged[name] = f
				names = append(names, name)
			}
			for lk, inst := range f.series {
				series[name] = append(series[name], entry{lk, inst})
			}
		}
		r.mu.Unlock()
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		f := merged[name]
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, f.help, name, f.kind)
		es := series[name]
		sort.Slice(es, func(i, j int) bool { return es[i].lk < es[j].lk })
		for _, e := range es {
			switch v := e.inst.(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s %d\n", seriesRef(name, e.lk, ""), v.Value())
			case *Gauge:
				fmt.Fprintf(&b, "%s %s\n", seriesRef(name, e.lk, ""), formatFloat(v.Value()))
			case *Histogram:
				writeHistogram(&b, name, e.lk, v)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// seriesRef renders name{labels,extra} with either part optional.
func seriesRef(name, lk, extra string) string {
	switch {
	case lk == "" && extra == "":
		return name
	case lk == "":
		return name + "{" + extra + "}"
	case extra == "":
		return name + "{" + lk + "}"
	default:
		return name + "{" + lk + "," + extra + "}"
	}
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func writeHistogram(b *strings.Builder, name, lk string, h *Histogram) {
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s %d\n",
			seriesRef(name+"_bucket", lk, fmt.Sprintf(`le="%s"`, formatFloat(bound))), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s %d\n", seriesRef(name+"_bucket", lk, `le="+Inf"`), cum)
	fmt.Fprintf(b, "%s %s\n", seriesRef(name+"_sum", lk, ""), formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s %d\n", seriesRef(name+"_count", lk, ""), h.count.Load())
}
