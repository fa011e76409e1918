package hcompress

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// scarceTiers puts a tiny RAM tier ahead of slow media so the engine has
// a reason to compress (and occasionally spill) — the regime in which
// every telemetry surface has something to report.
func scarceTiers() []TierSpec {
	return []TierSpec{
		{Name: "ram", CapacityBytes: 256 << 10, LatencySec: 1e-6, BandwidthBps: 6e9, Lanes: 4},
		{Name: "pfs", CapacityBytes: 64 << 30, LatencySec: 5e-3, BandwidthBps: 100e6, Lanes: 4},
	}
}

// telemetryWorkload runs a fixed mixed read/write/delete sequence whose
// payloads are deterministic.
func telemetryWorkload(t *testing.T, c *Client) {
	t.Helper()
	for i := 0; i < 6; i++ {
		data := []byte(strings.Repeat(fmt.Sprintf("tiered storage block %d. ", i), 4000+500*i))
		if _, err := c.Compress(Task{Key: fmt.Sprintf("k%d", i), Data: data}); err != nil {
			t.Fatalf("compress k%d: %v", i, err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := c.Decompress(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatalf("decompress k%d: %v", i, err)
		}
	}
	if err := c.Delete("k5"); err != nil {
		t.Fatal(err)
	}
}

// TestTraceDeterminismAcrossParallelism is the acceptance gate for the
// JSONL export: spans carry virtual-clock timestamps only, so the same
// serial workload must produce byte-identical traces whether the fanout
// pool has one worker or eight. Modeled oracle: the real one measures
// wall clocks, which no amount of virtual bookkeeping can make stable.
func TestTraceDeterminismAcrossParallelism(t *testing.T) {
	run := func(parallelism int) []byte {
		var buf bytes.Buffer
		c, err := New(Config{
			Tiers:       scarceTiers(),
			Parallelism: parallelism,
			TraceWriter: &buf,
			modeled:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		telemetryWorkload(t, c)
		return buf.Bytes()
	}
	serial := run(1)
	if len(serial) == 0 {
		t.Fatal("no trace output")
	}
	for _, parallelism := range []int{4, 8} {
		if fanned := run(parallelism); !bytes.Equal(serial, fanned) {
			t.Fatalf("trace differs between Parallelism 1 and %d:\n-- serial --\n%s\n-- fanned --\n%s",
				parallelism, serial, fanned)
		}
	}
	// Every line must be valid JSON with a record discriminator.
	for _, line := range bytes.Split(bytes.TrimSpace(serial), []byte("\n")) {
		var rec struct {
			Record string `json:"record"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if rec.Record != "span" && rec.Record != "audit" {
			t.Fatalf("unknown record kind %q", rec.Record)
		}
	}
}

// TestMetricsEndpoint drives the workload against a live listener and
// asserts the Prometheus exposition carries the acceptance-listed series:
// per-tier byte counters, per-codec ratio histograms, HCDP memo traffic,
// and CCP prediction-error summaries. Also checks /debug/vars.
func TestMetricsEndpoint(t *testing.T) {
	c := newClient(t, Config{
		Tiers:            scarceTiers(),
		MetricsAddr:      "127.0.0.1:0",
		FeedbackInterval: 1, // absorb feedback per-op so relerr histograms populate
	})
	addr := c.MetricsAddr()
	if addr == "" {
		t.Fatal("no metrics listener bound")
	}
	telemetryWorkload(t, c)

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		`hc_tier_put_bytes_total{tier="ram"}`,
		`hc_tier_put_ops_total{tier=`,
		`hc_codec_ratio_bucket{codec=`,
		`hc_codec_in_bytes_total{codec=`,
		"hc_hcdp_memo_hits_total",
		"hc_hcdp_memo_misses_total",
		`hc_ccp_pred_relerr_bucket{codec=`,
		`hc_client_op_seconds_bucket{op="compress",le=`,
		`hc_client_ops_total{op="compress"} 6`,
		`hc_client_ops_total{op="decompress"} 4`,
		`hc_client_ops_total{op="delete"} 1`,
		"hc_tier_capacity_bytes",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	resp, err = http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	vars, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(vars, []byte(`"hcompress"`)) {
		t.Error("/debug/vars missing hcompress aggregate")
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(vars, &decoded); err != nil {
		t.Fatalf("expvar output not JSON: %v", err)
	}
}

// TestSnapshotAndAudits exercises the typed surfaces: the metric
// snapshot keyed by canonical series name and the decision-audit ring.
func TestSnapshotAndAudits(t *testing.T) {
	c := newClient(t, Config{Tiers: scarceTiers(), EnableTelemetry: true})
	data := []byte(strings.Repeat("audited block of text data. ", 8000))
	rep, err := c.Compress(Task{Key: "a", Data: data})
	if err != nil {
		t.Fatal(err)
	}

	snap := c.Snapshot()
	if got := snap.Counters[`hc_client_ops_total{op="compress"}`]; got != 1 {
		t.Errorf("ops counter %d", got)
	}
	h, ok := snap.Histograms[`hc_client_op_seconds{op="compress"}`]
	if !ok || h.Count != 1 || h.Sum <= 0 {
		t.Errorf("op latency histogram %+v ok=%v", h, ok)
	}
	if snap.Gauges[`hc_tier_capacity_bytes{tier="ram"}`] != float64(256<<10) {
		t.Error("capacity gauge missing or wrong")
	}

	audits := c.Audits()
	if len(audits) != len(rep.SubTasks) {
		t.Fatalf("%d audits for %d sub-tasks", len(audits), len(rep.SubTasks))
	}
	for i, a := range audits {
		st := rep.SubTasks[i]
		if a.Codec != st.Codec || a.Tier != st.Tier {
			t.Errorf("audit %d (%s@%s) disagrees with report (%s@%s)", i, a.Codec, a.Tier, st.Codec, st.Tier)
		}
		if a.OrigBytes != st.OriginalBytes || a.StoredBytes != st.StoredBytes {
			t.Errorf("audit %d bytes mismatch", i)
		}
		if a.PredBytes != st.PredictedBytes || a.PredSeconds != st.PredictedSeconds {
			t.Errorf("audit %d predictions disagree with report", i)
		}
		if math.IsNaN(a.SizeErr) || math.IsInf(a.SizeErr, 0) || math.IsNaN(a.TimeErr) || math.IsInf(a.TimeErr, 0) {
			t.Errorf("audit %d non-finite errors: %v %v", i, a.SizeErr, a.TimeErr)
		}
	}
	if again := c.Audits(); len(again) != 0 {
		t.Errorf("Audits did not drain: %d left", len(again))
	}
}

// TestAuditRingBound checks the overflow policy: the ring keeps the
// newest AuditLogSize records.
func TestAuditRingBound(t *testing.T) {
	c := newClient(t, Config{Tiers: scarceTiers(), EnableTelemetry: true, AuditLogSize: 3})
	for i := 0; i < 5; i++ {
		data := []byte(strings.Repeat(fmt.Sprintf("ring %d. ", i), 2000))
		if _, err := c.Compress(Task{Key: fmt.Sprintf("r%d", i), Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	audits := c.Audits()
	if len(audits) > 3 {
		t.Fatalf("ring exceeded cap: %d", len(audits))
	}
	if len(audits) == 0 || audits[len(audits)-1].Key != "r4" {
		t.Fatalf("ring should keep newest records, got %+v", audits)
	}
}

// TestReportPredictedCosts checks the satellite: write reports carry the
// engine's predicted size and duration next to the actuals.
func TestReportPredictedCosts(t *testing.T) {
	c := newClient(t, Config{Tiers: scarceTiers()})
	data := []byte(strings.Repeat("predicted versus actual. ", 8000))
	rep, err := c.Compress(Task{Key: "p", Data: data})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PredictedSeconds <= 0 {
		t.Errorf("task PredictedSeconds %v", rep.PredictedSeconds)
	}
	for i, st := range rep.SubTasks {
		if st.PredictedBytes <= 0 {
			t.Errorf("sub-task %d PredictedBytes %d", i, st.PredictedBytes)
		}
		if st.PredictedSeconds <= 0 {
			t.Errorf("sub-task %d PredictedSeconds %v", i, st.PredictedSeconds)
		}
	}
	// Reads execute the stored schema; they carry no fresh predictions.
	back, err := c.Decompress("p")
	if err != nil {
		t.Fatal(err)
	}
	if back.PredictedSeconds != 0 {
		t.Errorf("read PredictedSeconds %v, want 0", back.PredictedSeconds)
	}
}

// TestTelemetryOff pins the zero-overhead contract: with no telemetry
// surface requested, every observability accessor degrades to an empty
// (but usable) result and the pipeline carries no instruments.
func TestTelemetryOff(t *testing.T) {
	c := newClient(t, Config{Tiers: scarceTiers()})
	if c.tel != nil || c.sink != nil {
		t.Fatal("telemetry constructed despite being off")
	}
	if _, err := c.Compress(Task{Key: "off", Data: bytes.Repeat([]byte("x"), 4096)}); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	if snap.Counters == nil || snap.Gauges == nil || snap.Histograms == nil {
		t.Error("Snapshot maps must be non-nil")
	}
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Error("Snapshot should be empty with telemetry off")
	}
	var buf bytes.Buffer
	if err := c.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("WriteMetrics wrote %d bytes with telemetry off", buf.Len())
	}
	if got := c.Audits(); len(got) != 0 {
		t.Error("Audits non-empty with telemetry off")
	}
	if c.MetricsAddr() != "" {
		t.Error("MetricsAddr non-empty without a listener")
	}
}

// TestPlainClientKeepsArenaCounters: the buffer arena is process-wide and
// mirrors its counters into one registry, so constructing a telemetry-off
// client must not detach the telemetry-on client that came before it.
func TestPlainClientKeepsArenaCounters(t *testing.T) {
	on := newClient(t, Config{Tiers: scarceTiers(), EnableTelemetry: true})
	newClient(t, Config{Tiers: scarceTiers()})
	before := on.Snapshot().Counters["hc_bufpool_puts_total"]
	if _, err := on.Compress(Task{Key: "k", Data: bytes.Repeat([]byte("arena "), 4096)}); err != nil {
		t.Fatal(err)
	}
	rep, err := on.Decompress("k")
	if err != nil {
		t.Fatal(err)
	}
	rep.Release() // hands the read buffer back to the arena: at least one put
	if after := on.Snapshot().Counters["hc_bufpool_puts_total"]; after <= before {
		t.Fatalf("hc_bufpool_puts_total stayed at %d after a write, a read and a Release", after)
	}
}

// TestMetricsAddrDuringClose polls MetricsAddr while Close runs: the
// accessor shares the lifecycle lock with Close (run under -race), reads
// the bound address before it and "" after.
func TestMetricsAddrDuringClose(t *testing.T) {
	c := newClient(t, Config{Tiers: scarceTiers(), MetricsAddr: "127.0.0.1:0"})
	bound := c.MetricsAddr()
	if bound == "" {
		t.Fatal("no metrics listener bound")
	}
	closed, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for {
			if got := c.MetricsAddr(); got != bound && got != "" {
				t.Errorf("MetricsAddr = %q, want %q or empty", got, bound)
			}
			select {
			case <-closed:
				return
			default:
			}
		}
	}()
	if err := c.Close(); err != nil {
		t.Error(err)
	}
	close(closed)
	<-polled
	if got := c.MetricsAddr(); got != "" {
		t.Errorf("MetricsAddr after Close = %q, want empty", got)
	}
}

// TestTelemetryConcurrent hammers a telemetry-enabled client from many
// goroutines while scraping snapshots and expositions — the race-clean
// acceptance check for the instrumented pipeline (run under -race).
func TestTelemetryConcurrent(t *testing.T) {
	var trace bytes.Buffer
	c := newClient(t, Config{
		Tiers:            scarceTiers(),
		EnableTelemetry:  true,
		TraceWriter:      &syncWriter{w: &trace},
		FeedbackInterval: 2,
	})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data := []byte(strings.Repeat(fmt.Sprintf("worker %d payload. ", w), 3000))
			for i := 0; i < 5; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				if _, err := c.Compress(Task{Key: key, Data: data}); err != nil {
					t.Errorf("compress %s: %v", key, err)
					return
				}
				if _, err := c.Decompress(key); err != nil {
					t.Errorf("decompress %s: %v", key, err)
					return
				}
				if i%2 == 1 {
					if err := c.Delete(key); err != nil {
						t.Errorf("delete %s: %v", key, err)
						return
					}
				}
			}
		}(w)
	}
	// Scrape concurrently with the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			_ = c.Snapshot()
			_ = c.WriteMetrics(io.Discard)
			_ = c.Audits()
		}
	}()
	wg.Wait()

	snap := c.Snapshot()
	if got := snap.Counters[`hc_client_ops_total{op="compress"}`]; got != workers*5 {
		t.Errorf("compress ops %d, want %d", got, workers*5)
	}
	if got := snap.Counters[`hc_client_ops_total{op="decompress"}`]; got != workers*5 {
		t.Errorf("decompress ops %d, want %d", got, workers*5)
	}
}

// syncWriter makes a bytes.Buffer safe for the concurrent test; the
// Sink serializes its own writes, but the buffer is also read by the
// test after Wait, so belt and braces.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
