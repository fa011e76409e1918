package hcompress

// Tests for the request-tracing, latency-attribution, and slow-op-log
// surfaces: span-tree structure and its width invariant, trace identity
// under cancellation storms, the slow-op admission policy, and the
// stage-attribution histograms. The byte-identity contract itself is
// pinned in telemetry_client_test.go.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// parseSpans decodes a JSONL trace and groups its span records by trace
// ID, preserving emission order within each group.
func parseSpans(t *testing.T, raw []byte) map[string][]TraceSpan {
	t.Helper()
	groups := make(map[string][]TraceSpan)
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec struct {
			Record string `json:"record"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if rec.Record != "span" {
			continue
		}
		var sp TraceSpan
		if err := json.Unmarshal(line, &sp); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		if sp.Trace == "" {
			t.Fatalf("span without a trace ID: %+v", sp)
		}
		groups[sp.Trace] = append(groups[sp.Trace], sp)
	}
	return groups
}

// checkSpanTree asserts one trace group is a complete, well-formed span
// tree: a single root (stage "op", span 1), IDs assigned in emission
// order, parents referencing earlier spans, zero-width markers pinned to
// the op start, and — the attribution invariant — codec, retry, and io
// leaf widths summing exactly (to fp rounding) to the root's width.
func checkSpanTree(t *testing.T, trace string, spans []TraceSpan) {
	t.Helper()
	root := spans[0]
	if root.Span != 1 || root.Parent != 0 || root.Stage != "op" {
		t.Fatalf("trace %s: first span is not the root: %+v", trace, root)
	}
	rootWidth := root.VEnd - root.VStart
	if rootWidth < 0 {
		t.Fatalf("trace %s: negative root width %v", trace, rootWidth)
	}
	var leafSum float64
	execSeen := false
	for i, sp := range spans {
		if sp.Span != i+1 {
			t.Fatalf("trace %s: span IDs not in emission order: got %d at position %d", trace, sp.Span, i)
		}
		if sp.Op != root.Op || sp.Key != root.Key {
			t.Fatalf("trace %s: span %d op/key (%s,%s) disagrees with root (%s,%s)",
				trace, sp.Span, sp.Op, sp.Key, root.Op, root.Key)
		}
		if sp.Span == 1 {
			continue
		}
		if sp.Parent < 1 || sp.Parent >= sp.Span {
			t.Fatalf("trace %s: span %d (%s) parent %d does not reference an earlier span",
				trace, sp.Span, sp.Stage, sp.Parent)
		}
		switch sp.Stage {
		case "analyze", "plan", "replan":
			if sp.VStart != root.VStart || sp.VEnd != root.VStart {
				t.Errorf("trace %s: marker %s not zero-width at op start: [%v, %v]",
					trace, sp.Stage, sp.VStart, sp.VEnd)
			}
		case "execute":
			execSeen = true
			if sp.VStart != root.VStart || sp.VEnd != root.VEnd {
				t.Errorf("trace %s: execute span [%v, %v] does not cover the root [%v, %v]",
					trace, sp.VStart, sp.VEnd, root.VStart, root.VEnd)
			}
		case "queue":
			// Queue leaves measure serial wait: they start at the op start
			// and end where the sub-task's own work begins.
			if sp.VStart != root.VStart || sp.VEnd < sp.VStart || sp.VEnd > root.VEnd {
				t.Errorf("trace %s: queue leaf sub %d out of bounds: [%v, %v] in [%v, %v]",
					trace, sp.Sub, sp.VStart, sp.VEnd, root.VStart, root.VEnd)
			}
		case "codec", "retry", "io":
			if sp.VEnd < sp.VStart {
				t.Errorf("trace %s: %s leaf sub %d has negative width [%v, %v]",
					trace, sp.Stage, sp.Sub, sp.VStart, sp.VEnd)
			}
			leafSum += sp.VEnd - sp.VStart
		default:
			t.Errorf("trace %s: unknown stage %q", trace, sp.Stage)
		}
	}
	if !execSeen {
		t.Errorf("trace %s: no execute span", trace)
	}
	if eps := 1e-9 * (1 + rootWidth); leafSum < rootWidth-eps || leafSum > rootWidth+eps {
		t.Errorf("trace %s (%s %s): codec+retry+io leaf widths sum to %v, root width is %v",
			trace, root.Op, root.Key, leafSum, rootWidth)
	}
}

// TestSpanTreeAttribution is the acceptance check for the span export:
// every operation's trace group is a complete tree whose per-stage
// virtual durations reconstruct the op's wall span on the virtual
// timeline.
func TestSpanTreeAttribution(t *testing.T) {
	var buf bytes.Buffer
	c := newClient(t, Config{Tiers: scarceTiers(), TraceWriter: &buf, modeled: true})
	telemetryWorkload(t, c)

	groups := parseSpans(t, buf.Bytes())
	// 6 writes + 4 reads; deletes do not emit spans. The single-shard
	// client synthesizes unprefixed IDs r1..r10 in submission order.
	if len(groups) != 10 {
		t.Fatalf("%d trace groups, want 10", len(groups))
	}
	ops := map[string]int{}
	for trace, spans := range groups {
		checkSpanTree(t, trace, spans)
		if !strings.HasPrefix(trace, "r") {
			t.Errorf("unexpected synthesized trace ID %q", trace)
		}
		root := spans[0]
		ops[root.Op]++
		if root.Class != "interactive" {
			t.Errorf("trace %s: class %q, want interactive", trace, root.Class)
		}
		if root.Op == "compress" {
			// Writes carry analyze and plan markers with their attributes.
			var analyzed, planned bool
			for _, sp := range spans {
				switch sp.Stage {
				case "analyze":
					analyzed = sp.Bytes > 0 && sp.DataType != ""
				case "plan":
					planned = sp.SubTasks > 0
				}
			}
			if !analyzed || !planned {
				t.Errorf("trace %s: write missing analyze/plan markers (analyze=%v plan=%v)",
					trace, analyzed, planned)
			}
		}
	}
	if ops["compress"] != 6 || ops["decompress"] != 4 {
		t.Errorf("trace ops %v, want 6 compress / 4 decompress", ops)
	}
}

// TestCancellationStorm hammers the client with racing cancellations and
// asserts the telemetry contract under churn: a cancelled operation
// leaves nothing behind — every emitted trace group is still a complete
// tree, and (with SampleEvery 1) the slow-op log holds exactly one entry
// per operation that actually succeeded.
func TestCancellationStorm(t *testing.T) {
	var buf bytes.Buffer
	c := newClient(t, Config{
		Tiers:             scarceTiers(),
		TraceWriter:       &syncWriter{w: &buf},
		SlowOpSampleEvery: 1,
		modeled:           true,
	})
	const workers, opsPer = 8, 12
	var successes atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data := []byte(strings.Repeat(fmt.Sprintf("storm %d payload. ", w), 3000))
			for i := 0; i < opsPer; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				switch i % 3 {
				case 0:
					cancel() // pre-cancelled: the op must not start
				case 1:
					go cancel() // racing cancel, may land mid-flight
				}
				_, err := c.CompressContext(ctx, Task{Key: fmt.Sprintf("s%d-%d", w, i), Data: data})
				switch {
				case err == nil:
					successes.Add(1)
				case !errors.Is(err, context.Canceled):
					t.Errorf("storm op s%d-%d: %v", w, i, err)
				}
				cancel()
			}
		}(w)
	}
	wg.Wait()

	ok := int(successes.Load())
	if ok == 0 || ok == workers*opsPer {
		t.Fatalf("storm produced %d/%d successes; the test needs a mix", ok, workers*opsPer)
	}
	groups := parseSpans(t, buf.Bytes())
	if len(groups) != ok {
		t.Errorf("%d trace groups for %d successful ops — cancelled ops leaked spans or successes lost theirs",
			len(groups), ok)
	}
	for trace, spans := range groups {
		checkSpanTree(t, trace, spans)
	}
	if slow := c.SlowOps(); len(slow) != ok {
		t.Errorf("%d slow-op entries for %d successful ops (SampleEvery=1)", len(slow), ok)
	}
}

// TestSlowOpThresholdArm: with a tiny threshold every completed op
// crosses it, and each record carries the full, self-consistent stage
// breakdown plus the write's audit records.
func TestSlowOpThresholdArm(t *testing.T) {
	c := newClient(t, Config{Tiers: scarceTiers(), SlowOpThreshold: time.Nanosecond})
	data := []byte(strings.Repeat("slow op payload. ", 8000))
	for i := 0; i < 3; i++ {
		if _, err := c.Compress(Task{Key: fmt.Sprintf("k%d", i), Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := c.Decompress("k0")
	if err != nil {
		t.Fatal(err)
	}

	ops := c.SlowOps()
	if len(ops) != 4 {
		t.Fatalf("%d slow-op records, want 4", len(ops))
	}
	for i, op := range ops {
		if op.Record != "slowop" || op.Trace == "" || op.Key == "" {
			t.Errorf("record %d malformed: %+v", i, op)
		}
		if op.WallSeconds <= 0 {
			t.Errorf("record %d WallSeconds %v", i, op.WallSeconds)
		}
		sum := op.CodecSeconds + op.IOSeconds + op.RetrySeconds
		if eps := 1e-9 * (1 + op.VirtualSeconds); sum < op.VirtualSeconds-eps || sum > op.VirtualSeconds+eps {
			t.Errorf("record %d: stage sum %v != virtual %v", i, sum, op.VirtualSeconds)
		}
	}
	writes, reads := ops[:3], ops[3]
	for i, op := range writes {
		if op.Op != "compress" || op.AnalyzeSeconds <= 0 || op.PlanSeconds <= 0 {
			t.Errorf("write record %d missing wall stage breakdown: %+v", i, op)
		}
		if len(op.Audits) == 0 {
			t.Errorf("write record %d carries no audit records", i)
		}
	}
	if reads.Op != "decompress" || len(reads.Audits) != 0 {
		t.Errorf("read record: %+v (reads plan nothing, so no audits)", reads)
	}
	if d := reads.VirtualSeconds - rep.VirtualSeconds; d < -1e-9 || d > 1e-9 {
		t.Errorf("read record virtual %v, report says %v", reads.VirtualSeconds, rep.VirtualSeconds)
	}
	if again := c.SlowOps(); len(again) != 0 {
		t.Errorf("SlowOps did not drain: %d left", len(again))
	}
}

// TestSlowOpSamplingArm: SampleEvery records every Nth completed op
// regardless of latency — the "Nth completed" counter, not "Nth slow".
func TestSlowOpSamplingArm(t *testing.T) {
	c := newClient(t, Config{Tiers: scarceTiers(), SlowOpSampleEvery: 2})
	data := []byte(strings.Repeat("sampled payload. ", 4000))
	for i := 0; i < 6; i++ {
		if _, err := c.Compress(Task{Key: fmt.Sprintf("k%d", i), Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	ops := c.SlowOps()
	if len(ops) != 3 {
		t.Fatalf("%d sampled records for 6 ops at every=2, want 3", len(ops))
	}
	for i, want := range []string{"k1", "k3", "k5"} {
		if ops[i].Key != want {
			t.Errorf("sampled record %d is %q, want %q", i, ops[i].Key, want)
		}
	}
}

// TestSlowOpRingBound: the ring keeps the newest SlowOpLogSize records.
func TestSlowOpRingBound(t *testing.T) {
	c := newClient(t, Config{Tiers: scarceTiers(), SlowOpSampleEvery: 1, SlowOpLogSize: 3})
	data := []byte(strings.Repeat("ring payload. ", 4000))
	for i := 0; i < 5; i++ {
		if _, err := c.Compress(Task{Key: fmt.Sprintf("r%d", i), Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	ops := c.SlowOps()
	if len(ops) != 3 {
		t.Fatalf("ring holds %d records, want 3", len(ops))
	}
	for i, want := range []string{"r2", "r3", "r4"} {
		if ops[i].Key != want {
			t.Errorf("ring record %d is %q, want %q (newest kept)", i, ops[i].Key, want)
		}
	}
}

// TestStageAttributionMetrics: the hc_stage_seconds family is populated
// across every stage after a mixed workload, and the pool health gauges
// are registered.
func TestStageAttributionMetrics(t *testing.T) {
	c := newClient(t, Config{Tiers: scarceTiers(), EnableTelemetry: true})
	telemetryWorkload(t, c)

	snap := c.Snapshot()
	for _, stage := range []string{"analyze", "plan", "codec", "io", "retry", "queue"} {
		h, ok := snap.Histograms[fmt.Sprintf("hc_stage_seconds{stage=%q}", stage)]
		if !ok {
			t.Errorf("hc_stage_seconds{stage=%q} not registered", stage)
			continue
		}
		if h.Count == 0 {
			t.Errorf("hc_stage_seconds{stage=%q} never observed", stage)
		}
	}
	// analyze/plan observe once per write; codec/io/retry once per
	// compress or decompress (6 + 4 here).
	if h := snap.Histograms[`hc_stage_seconds{stage="analyze"}`]; h.Count != 6 {
		t.Errorf("analyze stage observed %d times, want 6", h.Count)
	}
	if h := snap.Histograms[`hc_stage_seconds{stage="codec"}`]; h.Count != 10 {
		t.Errorf("codec stage observed %d times, want 10", h.Count)
	}
	for _, gauge := range []string{"hc_pool_queued", "hc_pool_workers_busy"} {
		if _, ok := snap.Gauges[gauge]; !ok {
			t.Errorf("gauge %s not registered", gauge)
		}
	}
}

// TestSpanJSONFastPathParity pins the hand-rolled encoder to
// encoding/json byte for byte across omitempty edges, escaping-hostile
// strings, and float formatting corners — the contract that lets record
// kinds move between the sink's fast and reflected paths freely.
func TestSpanJSONFastPathParity(t *testing.T) {
	spans := []TraceSpan{
		{Record: "span", Stage: "op", Op: "compress", Key: "k"},
		{Record: "span", Trace: "r1", Span: 1, Tenant: "acme", Class: "interactive",
			Op: "compress", Key: "k0", Stage: "op", VStart: 0, VEnd: 0.012345678901234567,
			CodecSeconds: 3.5e-7, IOSeconds: 1e21, StoredBytes: 4096},
		{Record: "span", Trace: `q"uo\te`, Span: 3, Parent: 1, Op: "decompress",
			Key: "path/<weird>&\n\tkey\x01", Stage: "io", Sub: 2, VStart: 1.5, VEnd: 2,
			Tier: "ram", PlannedTier: "pfs", Retries: 4},
		{Record: "span", Span: 2, Parent: 1, Op: "compress", Key: "k", Stage: "analyze",
			DataType: "float", Distribution: "gamma", Bytes: 1 << 20,
			SubTasks: 3, PredSeconds: 0.25},
	}
	for i, sp := range spans {
		want, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		if got := sp.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Errorf("span %d fast path diverges:\n fast %s\n json %s", i, got, want)
		}
	}
	audits := []AuditRecord{
		{Record: "audit"},
		{Record: "audit", Key: "k<&>", Sub: 1, PlannedTier: "ram", Tier: "pfs",
			Codec: "snappy", OrigBytes: 1 << 20, PredBytes: 12345, StoredBytes: 23456,
			PredSeconds: 1e-9, CodecSeconds: 0.5, IOSeconds: 2e-6,
			SizeErr: -0.25, TimeErr: 1.75},
	}
	for i, a := range audits {
		want, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Errorf("audit %d fast path diverges:\n fast %s\n json %s", i, got, want)
		}
	}
	// The per-op line encoder (one FloatMemo across spans and audits)
	// must produce exactly the per-record lines above, in order.
	var want []byte
	var got traceLines
	for i := range spans {
		want = append(spans[i].AppendJSON(want), '\n')
		got.span(&spans[i])
	}
	for i := range audits {
		want = append(audits[i].AppendJSON(want), '\n')
		got.audit(&audits[i])
	}
	if !bytes.Equal(got.buf, want) {
		t.Errorf("line encoder diverges:\n memo  %s\n plain %s", got.buf, want)
	}
}

// obsWriteLoad drives total write+delete cycles of compressible text
// across 8 goroutines and returns ops/second. Unlike runWriteLoad it
// passes no type hints, so every op runs the full analyze-plan-codec
// pipeline — the regime the overhead bound is meant for (raw memcpy
// stores would make any fixed tracing cost look enormous).
func obsWriteLoad(tb testing.TB, c *Client, data []byte, total int) float64 {
	tb.Helper()
	var next atomic.Int64
	var wg sync.WaitGroup
	startAll := time.Now()
	for w := 0; w < throughputWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(total) {
					return
				}
				key := fmt.Sprintf("obs%d-%d", w, i)
				if _, err := c.Compress(Task{Key: key, Data: data}); err != nil {
					tb.Error(err)
					return
				}
				if err := c.Delete(key); err != nil {
					tb.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return float64(total) / time.Since(startAll).Seconds()
}

// TestObservabilityOverheadGate enforces the PR's overhead bar: the full
// observability stack — metrics registry, span export, stage histograms,
// slow-op sampling — must stay within 7% of the telemetry-off write
// rate (plus a small absolute allowance for CI timer noise).
func TestObservabilityOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement is meaningless under -short")
	}
	if raceEnabled {
		t.Skip("-race serializes everything; throughput ratios are meaningless")
	}
	data := []byte(strings.Repeat("observable, compressible prose block 12345. ", 6000))
	const total = 2400
	side := func(obs bool) (*Client, func() float64) {
		cfg := Config{}
		if obs {
			cfg.EnableTelemetry = true
			cfg.TraceWriter = io.Discard
			cfg.SlowOpThreshold = 50 * time.Millisecond
			cfg.SlowOpSampleEvery = 32
		}
		c := newClient(t, cfg)
		obsWriteLoad(t, c, data, 200) // warm caches and models
		return c, func() float64 { return obsWriteLoad(t, c, data, total) }
	}
	_, off := side(false)
	cOn, on := side(true)
	ratio := medianPairRatio(t, off, on, func(off, on float64) float64 { return on / off })
	// 7% plus 3% absolute slack for CI noise.
	if ratio < 0.90 {
		t.Errorf("full observability runs at %.2fx the telemetry-off rate (median of %d pairs), want >= 0.90x",
			ratio, gatePairs)
	}
	if slow := cOn.SlowOps(); len(slow) == 0 {
		t.Error("sampled slow-op log empty after the gate workload")
	}
}
