package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "h")
	g := r.Gauge("g", "h")
	h := r.Histogram("hist", "h", SecondsBuckets)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	// All no-ops, no panics.
	c.Add(3)
	c.Inc()
	g.Set(1)
	g.Add(2)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	var sink *Sink
	sink.Emit(struct{}{}) // must not panic
	if NewSink(nil) != nil {
		t.Fatal("NewSink(nil) must be nil")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("hc_test_total", "a counter", L("tier", "ram"))
	c.Add(5)
	c.Inc()
	if got := c.Value(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
	// Same name+labels returns the same series.
	if r.Counter("hc_test_total", "a counter", L("tier", "ram")) != c {
		t.Fatal("re-registration must return the same instrument")
	}
	g := r.Gauge("hc_test_used", "a gauge")
	g.Set(10)
	g.Add(-2.5)
	if got := g.Value(); got != 7.5 {
		t.Fatalf("gauge = %g, want 7.5", got)
	}
}

func TestGaugeFuncReadsItsSource(t *testing.T) {
	r := New()
	v := 3.0
	r.GaugeFunc("hc_test_held", "a read-through gauge", func() float64 { return v }, L("tier", "ram"))
	v = 4
	if got := r.Snapshot().Gauges[`hc_test_held{tier="ram"}`]; got != 4 {
		t.Fatalf("snapshot reads %g, want the source's current 4", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `hc_test_held{tier="ram"} 4`) {
		t.Fatalf("exposition lacks the read-through value:\n%s", b.String())
	}
	r.GaugeFunc("hc_test_held", "a read-through gauge", func() float64 { return 9 }, L("tier", "ram"))
	if got := r.Snapshot().Gauges[`hc_test_held{tier="ram"}`]; got != 9 {
		t.Fatalf("re-registered gauge reads %g, want the new source's 9", got)
	}
	var off *Registry
	off.GaugeFunc("hc_test_held", "h", func() float64 { return 1 }) // no-op, no panic
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("hc_x", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on kind mismatch")
		}
	}()
	r.Gauge("hc_x", "h")
}

func TestHistogramQuantiles(t *testing.T) {
	r := New()
	bounds := make([]float64, 100) // 0.01, 0.02, ..., 1
	for i := range bounds {
		bounds[i] = float64(i+1) / 100
	}
	h := r.Histogram("lat", "latency", bounds)
	// Uniform 0..1: p50 ~ 0.5, p90 ~ 0.9, p99 ~ 0.99.
	for i := 0; i < 10000; i++ {
		h.Observe(float64(i) / 10000)
	}
	for _, tc := range []struct{ q, want float64 }{{0.5, 0.5}, {0.9, 0.9}, {0.99, 0.99}} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > 0.02 {
			t.Errorf("q%.2f = %g, want ~%g", tc.q, got, tc.want)
		}
	}
	if h.Count() != 10000 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-4999.5) > 1 {
		t.Fatalf("sum = %g", h.Sum())
	}
	// +Inf bucket observations report the largest finite bound.
	h2 := r.Histogram("lat2", "latency", []float64{1, 2})
	h2.Observe(50)
	if got := h2.Quantile(0.5); got != 2 {
		t.Fatalf("+Inf quantile = %g, want 2", got)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := New()
	r.Counter("hc_tier_put_bytes_total", "bytes written per tier", L("tier", "ram")).Add(4096)
	r.Counter("hc_tier_put_bytes_total", "bytes written per tier", L("tier", "pfs")).Add(100)
	r.Gauge("hc_tier_used_bytes", "used", L("tier", "ram")).Set(512)
	h := r.Histogram("hc_ratio", "ratios", []float64{1, 2, 4}, L("codec", "snappy"))
	h.Observe(1.5)
	h.Observe(3)
	h.Observe(9)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP hc_tier_put_bytes_total bytes written per tier",
		"# TYPE hc_tier_put_bytes_total counter",
		`hc_tier_put_bytes_total{tier="pfs"} 100`,
		`hc_tier_put_bytes_total{tier="ram"} 4096`,
		"# TYPE hc_tier_used_bytes gauge",
		`hc_tier_used_bytes{tier="ram"} 512`,
		"# TYPE hc_ratio histogram",
		`hc_ratio_bucket{codec="snappy",le="1"} 0`,
		`hc_ratio_bucket{codec="snappy",le="2"} 1`,
		`hc_ratio_bucket{codec="snappy",le="4"} 2`,
		`hc_ratio_bucket{codec="snappy",le="+Inf"} 3`,
		`hc_ratio_sum{codec="snappy"} 13.5`,
		`hc_ratio_count{codec="snappy"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Families sorted by name: hc_ratio before hc_tier_*.
	if strings.Index(out, "hc_ratio") > strings.Index(out, "hc_tier_put_bytes_total") {
		t.Error("families not sorted by name")
	}
	// Exposition must be stable across calls.
	var b2 bytes.Buffer
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b.String() != b2.String() {
		t.Error("exposition not deterministic across calls")
	}
}

func TestSnapshotKeys(t *testing.T) {
	r := New()
	r.Counter("c_total", "h", L("k", "v")).Add(7)
	r.Gauge("g", "h").Set(3)
	r.Histogram("h", "h", []float64{1, 2}).Observe(1.5)
	s := r.Snapshot()
	if s.Counters[`c_total{k="v"}`] != 7 {
		t.Fatalf("counters = %v", s.Counters)
	}
	if s.Gauges["g"] != 3 {
		t.Fatalf("gauges = %v", s.Gauges)
	}
	hs, ok := s.Histograms["h"]
	if !ok || hs.Count != 1 || hs.Sum != 1.5 {
		t.Fatalf("histograms = %v", s.Histograms)
	}
}

// TestRegistryConcurrencyStress is the -race contract for the registry:
// many goroutines hammer counters, gauges, and histograms — including
// racing first-time registrations — while a reader goroutine scrapes the
// Prometheus exposition and snapshots concurrently. Totals must come out
// exact because every write is atomic.
func TestRegistryConcurrencyStress(t *testing.T) {
	r := New()
	const (
		writers = 8
		perG    = 2000
	)
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b bytes.Buffer
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
			_ = r.Snapshot()
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Every goroutine re-registers the shared series and also owns
			// a private one, exercising both lookup paths under race.
			shared := r.Counter("stress_total", "shared")
			own := r.Counter("stress_own_total", "own", L("g", fmt.Sprint(g)))
			gauge := r.Gauge("stress_gauge", "shared gauge")
			hist := r.Histogram("stress_hist", "shared hist", SecondsBuckets)
			for i := 0; i < perG; i++ {
				shared.Inc()
				own.Inc()
				gauge.Add(1)
				hist.Observe(float64(i%1000) / 1000)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	scraper.Wait()

	if got := r.Counter("stress_total", "shared").Value(); got != writers*perG {
		t.Fatalf("shared counter = %d, want %d", got, writers*perG)
	}
	for g := 0; g < writers; g++ {
		if got := r.Counter("stress_own_total", "own", L("g", fmt.Sprint(g))).Value(); got != perG {
			t.Fatalf("own counter %d = %d, want %d", g, got, perG)
		}
	}
	if got := r.Gauge("stress_gauge", "shared gauge").Value(); got != writers*perG {
		t.Fatalf("gauge = %g, want %d", got, writers*perG)
	}
	if got := r.Histogram("stress_hist", "shared hist", SecondsBuckets).Count(); got != writers*perG {
		t.Fatalf("histogram count = %d, want %d", got, writers*perG)
	}
}

func TestSinkEmitsJSONL(t *testing.T) {
	var b bytes.Buffer
	s := NewSink(&b)
	type rec struct {
		Record string  `json:"record"`
		V      float64 `json:"v"`
	}
	s.Emit(rec{"span", 1.5}, rec{"audit", 2})
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d: %q", len(lines), b.String())
	}
	var got rec
	if err := json.Unmarshal([]byte(lines[1]), &got); err != nil {
		t.Fatal(err)
	}
	if got.Record != "audit" || got.V != 2 {
		t.Fatalf("line = %+v", got)
	}
}

// TestFloatMemoMatchesAppendJSONFloat: a memoized encode is byte-identical
// to formatting every value afresh, across repeats, more distinct values
// than the memo holds (so slots are overwritten and re-learned), signed
// zeros, exponent-form values and non-finite ones, and across the
// reallocation of the buffer the memo's offsets point into.
func TestFloatMemoMatchesAppendJSONFloat(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1.5, 1.5, 3.5e-7, 1e21, 0.012345678901234567, 1.5,
		math.NaN(), math.Inf(1), -2.25, 3.5e-7, 0}
	for i := 0; i < 40; i++ {
		vals = append(vals, float64(i)*0.1, 1.5, float64(i%5)*1e-9)
	}
	var fm FloatMemo
	var got, want []byte // both start nil, so got reallocates as it grows
	for _, v := range vals {
		got = append(fm.Append(append(got, '"', 'v', '"', ':'), v), ',')
		want = append(appendJSONFloat(append(want, '"', 'v', '"', ':'), v), ',')
	}
	if !bytes.Equal(got, want) {
		t.Errorf("memoized encode diverges:\n memo  %s\n plain %s", got, want)
	}
	if nilGot := (*FloatMemo)(nil).Append(nil, 2.5); string(nilGot) != "2.5" {
		t.Errorf("nil memo appended %q", nilGot)
	}
}
