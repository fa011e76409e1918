package manager

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"hcompress/internal/analyzer"
	"hcompress/internal/bufpool"
	"hcompress/internal/fault"
	"hcompress/internal/hcerr"
	"hcompress/internal/stats"
	"hcompress/internal/store"
	"hcompress/internal/tier"
)

func textishAttr() analyzer.Result {
	return analyzer.Result{Type: stats.TypeText, Dist: stats.Normal}
}

// TestPutSubRetriesTransientBlip drives the placement helper directly so
// timing is pure virtual arithmetic: a transient window closing at 2 ms
// is outlived by the doubling backoff (attempts at 0, 1 ms, 3 ms) and
// the payload lands on the planned tier.
func TestPutSubRetriesTransientBlip(t *testing.T) {
	h := tier.Ares(64*tier.MB, 256*tier.MB, tier.GB, tier.TB)
	st, err := store.Open(h, store.Options{KeepData: true, FaultInjector: &fault.Schedule{Windows: []fault.Window{
		{Tier: 0, Start: 0, End: 0.002, Mode: fault.Transient},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	m := New(st, nil, Options{})
	payload := bufpool.Get(4096)
	end, tierIdx, retrySecs, retries, err := m.putSub(0, 0, "k#0", payload, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if tierIdx != 0 {
		t.Fatalf("retry should keep the planned tier, spilled to %d", tierIdx)
	}
	if end < 0.003 {
		t.Fatalf("end %v: backoff must have advanced past the window", end)
	}
	if retries == 0 || retrySecs <= 0 {
		t.Fatalf("retry attribution missing: retries=%d retrySecs=%v", retries, retrySecs)
	}
	if retrySecs >= end {
		t.Fatalf("retrySecs %v must be a strict share of the sub-task time %v", retrySecs, end)
	}
}

// TestPutSubSpillsOnStickyOutage: a sticky outage is not retried on the
// dead tier — the payload spills down the hierarchy immediately.
func TestPutSubSpillsOnStickyOutage(t *testing.T) {
	h := tier.Ares(64*tier.MB, 256*tier.MB, tier.GB, tier.TB)
	st, err := store.Open(h, store.Options{KeepData: true, FaultInjector: &fault.Schedule{Windows: []fault.Window{
		{Tier: 0, Start: 0, Mode: fault.Outage},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	m := New(st, nil, Options{})
	payload := bufpool.Get(4096)
	_, tierIdx, _, retries, err := m.putSub(0, 0, "k#0", payload, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if tierIdx != 1 {
		t.Fatalf("sticky outage should spill to tier 1, got %d", tierIdx)
	}
	if retries != 0 {
		t.Fatalf("sticky outage must not count retries, got %d", retries)
	}
}

// TestPutSubExhaustsRetriesThenSpills: a transient window that outlives
// every backoff attempt behaves like an outage — spill, don't fail.
func TestPutSubExhaustsRetriesThenSpills(t *testing.T) {
	h := tier.Ares(64*tier.MB, 256*tier.MB, tier.GB, tier.TB)
	st, err := store.Open(h, store.Options{KeepData: true, FaultInjector: &fault.Schedule{Windows: []fault.Window{
		{Tier: 0, Start: 0, End: 100, Mode: fault.Transient},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	m := New(st, nil, Options{})
	payload := bufpool.Get(4096)
	_, tierIdx, retrySecs, retries, err := m.putSub(0, 0, "k#0", payload, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if tierIdx != 1 {
		t.Fatalf("exhausted retries should spill to tier 1, got %d", tierIdx)
	}
	if retries == 0 || retrySecs <= 0 {
		t.Fatalf("exhausted retries must still be attributed: retries=%d retrySecs=%v", retries, retrySecs)
	}
}

// TestReadDetectsCorruption: a read that hands back flipped bits must
// fail with ErrCorrupted from the CRC gate, not garbage from a codec.
func TestReadDetectsCorruption(t *testing.T) {
	env := newRealEnv(t, fault.Window{Tier: 0, Start: 1, End: 2.5, Mode: fault.CorruptReads})
	data := bytes.Repeat([]byte("corruption test payload line\n"), 2048)
	attr := textishAttr()
	schema, err := env.eng.Plan(0, attr, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writeOne(env.mgr, 0, "k", data, int64(len(data)), attr, schema); err != nil {
		t.Fatal(err)
	}
	// Reads decided before the window are clean; inside it they corrupt.
	if res, err := readOne(env.mgr, 0.5, "k"); err != nil {
		t.Fatalf("pre-window read: %v", err)
	} else {
		bufpool.Put(res.Data)
	}
	_, err = readOne(env.mgr, 2, "k")
	if !errors.Is(err, hcerr.ErrCorrupted) {
		t.Fatalf("want ErrCorrupted, got %v", err)
	}
	// The stored bytes are intact (the corruption was a read-side copy):
	// a read after the window succeeds again.
	if res, err := readOne(env.mgr, 3, "k"); err != nil {
		t.Fatalf("post-window read: %v", err)
	} else {
		if !bytes.Equal(res.Data, data) {
			t.Fatal("recovered payload differs")
		}
		bufpool.Put(res.Data)
	}
}

// TestExecuteWritesCancelled: a cancelled context aborts before the
// store is touched; nothing is stored and the context error surfaces.
func TestExecuteWritesCancelled(t *testing.T) {
	env := newRealEnv(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	data := bytes.Repeat([]byte("x"), 1<<16)
	attr := textishAttr()
	schema, err := env.eng.Plan(0, attr, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	reqs := []WriteReq{{Key: "k", Data: data, Size: int64(len(data)), Attr: attr, Schema: schema}}
	env.mgr.ExecuteWrites(ctx, 0, reqs)
	if !errors.Is(reqs[0].Err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", reqs[0].Err)
	}
	if _, err := readOne(env.mgr, 0, "k"); !errors.Is(err, hcerr.ErrNotFound) {
		t.Fatalf("cancelled write must leave no task, got %v", err)
	}
}

// TestUnknownTaskIsErrNotFound: the typed taxonomy reaches the manager's
// read and delete paths.
func TestUnknownTaskIsErrNotFound(t *testing.T) {
	env := newRealEnv(t)
	if _, err := readOne(env.mgr, 0, "nope"); !errors.Is(err, hcerr.ErrNotFound) {
		t.Fatalf("read: want ErrNotFound, got %v", err)
	}
	if err := env.mgr.Delete("nope"); !errors.Is(err, hcerr.ErrNotFound) {
		t.Fatalf("delete: want ErrNotFound, got %v", err)
	}
}
