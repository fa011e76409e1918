package hcompress

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"hcompress/internal/stats"
)

func TestCompressBatchRoundTrip(t *testing.T) {
	c := newClient(t, Config{})
	var tasks []Task
	var want [][]byte
	for i := 0; i < 6; i++ {
		var data []byte
		if i%2 == 0 {
			data = stats.GenBuffer(stats.TypeFloat, stats.Gamma, 1<<20, int64(i))
		} else {
			data = []byte(strings.Repeat(fmt.Sprintf("tiered storage burst %d. ", i), 20000))
		}
		tasks = append(tasks, Task{Key: fmt.Sprintf("batch%d", i), Data: data})
		want = append(want, data)
	}
	reps, err := c.CompressBatch(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(tasks) {
		t.Fatalf("%d reports for %d tasks", len(reps), len(tasks))
	}
	for i, rep := range reps {
		if rep == nil {
			t.Fatalf("report %d is nil", i)
		}
		if rep.Key != tasks[i].Key {
			t.Errorf("report %d key %q, want %q (input order)", i, rep.Key, tasks[i].Key)
		}
		if rep.OriginalBytes != int64(len(want[i])) || rep.StoredBytes <= 0 {
			t.Errorf("report %d: orig %d stored %d", i, rep.OriginalBytes, rep.StoredBytes)
		}
	}

	keys := make([]string, len(tasks))
	for i := range tasks {
		keys[i] = tasks[i].Key
	}
	rreps, err := c.DecompressBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range rreps {
		if rep == nil {
			t.Fatalf("read report %d is nil", i)
		}
		if !bytes.Equal(rep.Data, want[i]) {
			t.Fatalf("read %d: %d bytes, want %d", i, len(rep.Data), len(want[i]))
		}
		rep.Release()
	}
}

// TestBatchMatchesSingleOpResults: a batch of one task must make the
// same decisions the single-op path makes for the same data — same
// schema, same placement, same stored bytes. Times are excluded: the
// real oracle measures codec wall clocks, which never repeat exactly
// (the virtual-time byte-identical contract is asserted in the manager
// package under the deterministic model oracle).
func TestBatchMatchesSingleOpResults(t *testing.T) {
	data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 1<<20, 7)
	single := newClient(t, Config{})
	batch := newClient(t, Config{})

	srep, err := single.Compress(Task{Key: "k", Data: data})
	if err != nil {
		t.Fatal(err)
	}
	breps, err := batch.CompressBatch([]Task{{Key: "k", Data: data}})
	if err != nil {
		t.Fatal(err)
	}
	brep := breps[0]
	if srep.StoredBytes != brep.StoredBytes || srep.Ratio != brep.Ratio ||
		srep.PredictedSeconds != brep.PredictedSeconds ||
		srep.DataType != brep.DataType || srep.Distribution != brep.Distribution ||
		len(srep.SubTasks) != len(brep.SubTasks) {
		t.Fatalf("batch result differs from single-op:\nsingle %+v\nbatch  %+v", srep, brep)
	}
	for i := range srep.SubTasks {
		s, b := srep.SubTasks[i], brep.SubTasks[i]
		s.CodecSeconds, b.CodecSeconds = 0, 0 // wall-clock measured, not comparable
		s.IOSeconds, b.IOSeconds = 0, 0       // offset by codec wall time, ulp-different
		if s != b {
			t.Fatalf("sub-task %d differs: single %+v batch %+v", i, s, b)
		}
	}
}

func TestCompressBatchFailsIndependently(t *testing.T) {
	c := newClient(t, Config{})
	data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 1<<19, 3)
	reps, err := c.CompressBatch([]Task{
		{Key: "ok0", Data: data},
		{Key: "", Data: data},      // invalid: no key
		{Key: "nodata", Data: nil}, // invalid: empty data
		{Key: "ok1", Data: data},
	})
	if err == nil {
		t.Fatal("batch with invalid tasks returned nil error")
	}
	if reps[0] == nil || reps[3] == nil {
		t.Fatal("valid tasks did not produce reports")
	}
	if reps[1] != nil || reps[2] != nil {
		t.Fatal("invalid tasks produced reports")
	}
	for _, key := range []string{"ok0", "ok1"} {
		rep, err := c.Decompress(key)
		if err != nil {
			t.Fatalf("valid task %q unreadable after mixed batch: %v", key, err)
		}
		if !bytes.Equal(rep.Data, data) {
			t.Fatalf("%q round-trip mismatch", key)
		}
		rep.Release()
	}

	rreps, err := c.DecompressBatch([]string{"ok0", "missing", "ok1"})
	if err == nil {
		t.Fatal("batch read with unknown key returned nil error")
	}
	if rreps[0] == nil || rreps[2] == nil || rreps[1] != nil {
		t.Fatalf("read independence violated: %v", rreps)
	}
}

func TestBatchOnClosedClient(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	data := []byte("x")
	if _, err := c.CompressBatch([]Task{{Key: "k", Data: data}}); err != ErrClosed {
		t.Errorf("CompressBatch on closed client: %v, want ErrClosed", err)
	}
	if _, err := c.DecompressBatch([]string{"k"}); err != ErrClosed {
		t.Errorf("DecompressBatch on closed client: %v, want ErrClosed", err)
	}
	if _, err := c.CompressBatch(nil); err != nil {
		t.Errorf("empty batch: %v, want nil", err)
	}
}

// sameErrIdentity reports whether a and b are the same failure as far as
// a caller can tell: both nil, or both matching the same sentinels.
func sameErrIdentity(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	for _, s := range []error{context.Canceled, context.DeadlineExceeded, ErrClosed,
		ErrNotFound, ErrNoCapacity, ErrTierOffline, ErrCorrupted, ErrDegraded} {
		if errors.Is(a, s) != errors.Is(b, s) {
			return false
		}
	}
	return true
}

// sameReport compares two reports modulo what the real oracle measures
// with a wall clock (codec seconds, and the virtual times offset by them).
func sameReport(t *testing.T, what string, s, b *Report) {
	t.Helper()
	if (s == nil) != (b == nil) {
		t.Fatalf("%s: single report %v, batch report %v", what, s, b)
	}
	if s == nil {
		return
	}
	if s.Key != b.Key || s.OriginalBytes != b.OriginalBytes || s.StoredBytes != b.StoredBytes ||
		s.Ratio != b.Ratio || s.PredictedSeconds != b.PredictedSeconds ||
		s.DataType != b.DataType || s.Distribution != b.Distribution ||
		s.CacheHit != b.CacheHit || !bytes.Equal(s.Data, b.Data) || len(s.SubTasks) != len(b.SubTasks) {
		t.Fatalf("%s: batch report differs from single-op:\nsingle %+v\nbatch  %+v", what, s, b)
	}
	for i := range s.SubTasks {
		x, y := s.SubTasks[i], b.SubTasks[i]
		x.CodecSeconds, y.CodecSeconds = 0, 0
		x.IOSeconds, y.IOSeconds = 0, 0
		if x != y {
			t.Fatalf("%s: sub-task %d differs: single %+v batch %+v", what, i, x, y)
		}
	}
	if (s.Degraded == nil) != (b.Degraded == nil) {
		t.Fatalf("%s: single Degraded %v, batch Degraded %v", what, s.Degraded, b.Degraded)
	}
	if s.Degraded != nil && (s.Degraded.Key != b.Degraded.Key || s.Degraded.Tier != b.Degraded.Tier ||
		!sameErrIdentity(s.Degraded.Cause, b.Degraded.Cause)) {
		t.Fatalf("%s: single Degraded %v, batch Degraded %v", what, s.Degraded, b.Degraded)
	}
}

// TestBatchOfOneEqualsSingle: a single op is the batch pipeline with one
// record, so on identically configured clients Compress(t) and
// CompressBatch([]Task{t}) — and the read pair — must be the same
// operation in every way a caller or an operator can observe: report,
// degradation, error identity, per-stage latency samples, slow-op
// eligibility. Healthy and faulted alike, because the failure ladder is
// part of the pipeline, not of one entry point.
func TestBatchOfOneEqualsSingle(t *testing.T) {
	lie := func(tier string) FaultWindow {
		return FaultWindow{Tier: tier, Mode: FaultCapacityLie, CapacityFraction: 0}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sc := range []struct {
		name    string
		ctx     context.Context
		windows []FaultWindow
	}{
		{name: "healthy"},
		{name: "capacity lie on every tier", windows: []FaultWindow{lie("ram"), lie("pfs")}},
		{name: "sticky ram outage", windows: []FaultWindow{{Tier: "ram", Mode: FaultOutage}}},
		{name: "transient blip", windows: []FaultWindow{{Tier: "ram", EndSec: 0.002, Mode: FaultTransient}}},
		{name: "every tier out", windows: []FaultWindow{{Tier: "ram", Mode: FaultOutage}, {Tier: "pfs", Mode: FaultOutage}}},
		{name: "pre-cancelled ctx", ctx: cancelled},
	} {
		t.Run(sc.name, func(t *testing.T) {
			ctx := sc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			cfg := Config{Tiers: faultTiers(), EnableTelemetry: true, SlowOpSampleEvery: 1}
			if sc.windows != nil {
				cfg.FaultInjector = &FaultInjector{Windows: sc.windows}
			}
			single, batch := newClient(t, cfg), newClient(t, cfg)
			task := Task{Key: "k", Data: faultPayload(5000)}

			first := func(reps []*Report) *Report {
				if len(reps) == 0 {
					return nil
				}
				return reps[0]
			}
			srep, serr := single.CompressContext(ctx, task)
			breps, berr := batch.CompressBatchContext(ctx, []Task{task})
			if !sameErrIdentity(serr, berr) {
				t.Fatalf("write: single err %v, batch err %v", serr, berr)
			}
			sameReport(t, "write", srep, first(breps))

			for _, key := range []string{"k", "missing"} {
				srep, serr := single.DecompressContext(ctx, key)
				breps, berr := batch.DecompressBatchContext(ctx, []string{key})
				if !sameErrIdentity(serr, berr) {
					t.Fatalf("read %q: single err %v, batch err %v", key, serr, berr)
				}
				sameReport(t, "read "+key, srep, first(breps))
			}

			ss, bs := single.Snapshot(), batch.Snapshot()
			for _, stage := range []string{"queue", "analyze", "plan", "codec", "io", "retry"} {
				series := fmt.Sprintf("hc_stage_seconds{stage=%q}", stage)
				if s, b := ss.Histograms[series].Count, bs.Histograms[series].Count; s != b {
					t.Errorf("%s: %d samples after single ops, %d after batches of one", series, s, b)
				}
			}
			if s, b := len(single.SlowOps()), len(batch.SlowOps()); s != b {
				t.Errorf("slow-op ring: %d records after single ops, %d after batches of one", s, b)
			}
		})
	}
}
