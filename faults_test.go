package hcompress

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"hcompress/internal/stats"
)

// faultTiers is a two-tier hierarchy small enough that plans are cheap
// but big enough that nothing spills for capacity reasons — every spill
// in these tests is fault-driven.
func faultTiers() []TierSpec {
	return []TierSpec{
		{Name: "ram", CapacityBytes: 256 << 20, LatencySec: 1e-6, BandwidthBps: 6e9, Lanes: 4},
		{Name: "pfs", CapacityBytes: 64 << 30, LatencySec: 5e-3, BandwidthBps: 100e6, Lanes: 4},
	}
}

func faultPayload(n int) []byte {
	return []byte(strings.Repeat("fault tolerant tiered storage payload. ", n))
}

// TestWriteSurvivesTransientBlip: a transient fault on the fast tier is
// retried with backoff and, when the window outlives every attempt,
// spilled past — the write succeeds either way and the retry counter
// moved. (The backoff-escapes-the-window case is asserted with exact
// virtual arithmetic in internal/manager; here the window never closes
// so the outcome is deterministic under wall-measured codec times.)
func TestWriteSurvivesTransientBlip(t *testing.T) {
	c := newClient(t, Config{
		Tiers:           faultTiers(),
		EnableTelemetry: true,
		FaultInjector: &FaultInjector{Windows: []FaultWindow{
			{Tier: "ram", StartSec: 0, Mode: FaultTransient},
		}},
	})
	data := faultPayload(5000)
	rep, err := c.Compress(Task{Key: "k", Data: data})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded != nil {
		t.Fatalf("transient blip must not degrade the write: %v", rep.Degraded)
	}
	back, err := c.Decompress("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Data, data) {
		t.Fatal("round-trip mismatch")
	}
	snap := c.Snapshot()
	if snap.Counters["hc_retries_total"] == 0 {
		t.Fatalf("expected transient retries, counters: %v", snap.Counters)
	}
}

// TestWritesSurviveStickyTierDeath: with the fast tier dead for good,
// every write still succeeds (spill chain), the health machine takes the
// tier offline after the error streak, and later plans never target it.
func TestWritesSurviveStickyTierDeath(t *testing.T) {
	c := newClient(t, Config{
		Tiers:           faultTiers(),
		EnableTelemetry: true,
		FaultInjector: &FaultInjector{Windows: []FaultWindow{
			{Tier: "ram", StartSec: 0, Mode: FaultOutage}, // never closes
		}},
	})
	data := faultPayload(5000)
	for i := 0; i < 6; i++ {
		rep, err := c.Compress(Task{Key: fmt.Sprintf("k%d", i), Data: data})
		if err != nil {
			t.Fatalf("write %d under single-tier outage must succeed: %v", i, err)
		}
		for _, st := range rep.SubTasks {
			if st.Tier == "ram" {
				t.Fatalf("write %d placed a sub-task on the dead tier", i)
			}
		}
	}
	// The error streak crossed the offline threshold long ago.
	h := c.Health()
	if h[0].Name != "ram" || h[0].State != "offline" {
		t.Fatalf("ram should be offline: %+v", h)
	}
	if h[1].State != "healthy" {
		t.Fatalf("pfs should be healthy: %+v", h)
	}
	// Status folds the same machine state into its rows.
	sts := c.Status()
	if sts[0].Health != "offline" || sts[0].ConsecutiveErrors < 3 {
		t.Fatalf("status health row: %+v", sts[0])
	}
	if g := c.Snapshot().Gauges[`hc_tier_health{tier="ram"}`]; g != 2 {
		t.Fatalf("hc_tier_health{tier=ram} = %v, want 2 (offline)", g)
	}
	// Everything written during the outage reads back intact.
	for i := 0; i < 6; i++ {
		back, err := c.Decompress(fmt.Sprintf("k%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back.Data, data) {
			t.Fatalf("read %d mismatch", i)
		}
	}
}

// TestTierRecoveryViaProbe: a tier that dies and comes back is probed
// after the probe interval and re-enters placement; the fault-event log
// records the full offline→healthy arc.
func TestTierRecoveryViaProbe(t *testing.T) {
	c := newClient(t, Config{
		Tiers:           faultTiers(),
		EnableTelemetry: true,
		FaultInjector: &FaultInjector{Windows: []FaultWindow{
			{Tier: "ram", StartSec: 0, EndSec: 2, Mode: FaultOutage},
		}},
	})
	data := faultPayload(5000)
	for i := 0; i < 4; i++ {
		if _, err := c.Compress(Task{Key: fmt.Sprintf("k%d", i), Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Health()[0].State != "offline" {
		t.Fatalf("ram should be offline: %+v", c.Health())
	}
	// Step the virtual clock past the outage window and the probe time.
	c.Advance(5)
	rep, err := c.Compress(Task{Key: "after", Data: data})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded != nil {
		t.Fatalf("recovered write must not degrade: %v", rep.Degraded)
	}
	if c.Health()[0].State != "healthy" {
		t.Fatalf("probe success must heal ram: %+v", c.Health())
	}
	// The healed tier is planned onto again.
	rep2, err := c.Compress(Task{Key: "after2", Data: data})
	if err != nil {
		t.Fatal(err)
	}
	onRAM := false
	for _, st := range append(rep.SubTasks, rep2.SubTasks...) {
		if st.Tier == "ram" {
			onRAM = true
		}
	}
	if !onRAM {
		t.Fatal("recovered ram never reused by placement")
	}
	// The audit trail shows the arc: degraded → offline → healthy.
	var states []string
	for _, ev := range c.FaultEvents() {
		if ev.Tier == "ram" {
			states = append(states, ev.To)
		}
	}
	want := []string{"degraded", "offline", "healthy"}
	if len(states) != len(want) {
		t.Fatalf("fault events %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("fault events %v, want %v", states, want)
		}
	}
}

// TestCorruptedReadIsDetected: bit flips served by the store are caught
// by the sub-task CRC and surface as ErrCorrupted; the media is intact
// so reads outside the window still verify.
func TestCorruptedReadIsDetected(t *testing.T) {
	c := newClient(t, Config{
		Tiers: faultTiers(),
		FaultInjector: &FaultInjector{Windows: []FaultWindow{
			{Tier: "ram", StartSec: 1, EndSec: 10, Mode: FaultCorrupt},
			{Tier: "pfs", StartSec: 1, EndSec: 10, Mode: FaultCorrupt},
		}},
	})
	data := faultPayload(5000)
	if _, err := c.Compress(Task{Key: "k", Data: data}); err != nil {
		t.Fatal(err)
	}
	c.Advance(2) // into the corruption window
	if _, err := c.Decompress("k"); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("want ErrCorrupted, got %v", err)
	}
	c.Advance(10) // past it: the stored bytes were never harmed
	back, err := c.Decompress("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Data, data) {
		t.Fatal("post-window round-trip mismatch")
	}
}

// TestDegradedWriteWhenNoCompressingPlan: capacity lies make every tier
// look full, so no compressing schema is feasible — the write degrades
// to uncompressed-on-any-tier, succeeds, and reads back intact.
func TestDegradedWriteWhenNoCompressingPlan(t *testing.T) {
	c := newClient(t, Config{
		Tiers:           faultTiers(),
		EnableTelemetry: true,
		FaultInjector: &FaultInjector{Windows: []FaultWindow{
			{Tier: "ram", StartSec: 0, Mode: FaultCapacityLie, CapacityFraction: 0},
			{Tier: "pfs", StartSec: 0, Mode: FaultCapacityLie, CapacityFraction: 0},
		}},
	})
	data := faultPayload(5000)
	rep, err := c.Compress(Task{Key: "k", Data: data})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded == nil {
		t.Fatal("write with every tier reported full must be degraded")
	}
	if !errors.Is(rep.Degraded, ErrDegraded) {
		t.Fatalf("Degraded must match ErrDegraded: %v", rep.Degraded)
	}
	if rep.Degraded.Key != "k" || rep.Degraded.Tier == "" {
		t.Fatalf("degraded detail: %+v", rep.Degraded)
	}
	if len(rep.SubTasks) != 1 || rep.SubTasks[0].Codec != "none" {
		t.Fatalf("degraded write must store uncompressed: %+v", rep.SubTasks)
	}
	if c.Snapshot().Counters["hc_degraded_writes_total"] == 0 {
		t.Fatal("hc_degraded_writes_total must count the degraded write")
	}
	back, err := c.Decompress("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Data, data) {
		t.Fatal("degraded round-trip mismatch")
	}
}

// TestBatchSurvivesStickyTierDeath: the batch path has the same
// availability story as Compress — a dead tier never fails a batch task.
func TestBatchSurvivesStickyTierDeath(t *testing.T) {
	c := newClient(t, Config{
		Tiers: faultTiers(),
		FaultInjector: &FaultInjector{Windows: []FaultWindow{
			{Tier: "ram", StartSec: 0, Mode: FaultOutage},
		}},
	})
	data := faultPayload(2000)
	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i] = Task{Key: fmt.Sprintf("b%d", i), Data: data}
	}
	reps, err := c.CompressBatch(tasks)
	if err != nil {
		t.Fatalf("batch under single-tier outage must succeed: %v", err)
	}
	keys := make([]string, len(tasks))
	for i := range tasks {
		if reps[i] == nil {
			t.Fatalf("task %d has no report", i)
		}
		keys[i] = tasks[i].Key
	}
	backs, err := c.DecompressBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range backs {
		if !bytes.Equal(backs[i].Data, data) {
			t.Fatalf("batch read %d mismatch", i)
		}
	}
}

// TestContextCancellation: cancelled contexts surface ctx.Err() from
// every context-aware entry point, leave no partial task behind, and a
// storm of cancellations leaks no goroutines.
func TestContextCancellation(t *testing.T) {
	c := newClient(t, Config{Tiers: faultTiers()})
	data := faultPayload(2000)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := c.CompressContext(cancelled, Task{Key: "k", Data: data}); !errors.Is(err, context.Canceled) {
		t.Fatalf("CompressContext: want context.Canceled, got %v", err)
	}
	if _, err := c.Decompress("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancelled write must leave no task: %v", err)
	}
	if _, err := c.DecompressContext(cancelled, "k"); !errors.Is(err, context.Canceled) {
		t.Fatalf("DecompressContext: want context.Canceled, got %v", err)
	}
	if _, err := c.CompressBatchContext(cancelled, []Task{{Key: "b", Data: data}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("CompressBatchContext: want context.Canceled, got %v", err)
	}
	if _, err := c.DecompressBatchContext(cancelled, []string{"b"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("DecompressBatchContext: want context.Canceled, got %v", err)
	}

	// Cancellation storm: contexts cancelled concurrently with the work.
	// Each call either completes or returns the context error; either way
	// the worker pool must drain — no goroutine may leak.
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { cancel(); close(done) }()
		key := fmt.Sprintf("storm%d", i)
		if _, err := c.CompressContext(ctx, Task{Key: key, Data: data}); err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("storm %d: %v", i, err)
			}
		} else if _, err := c.DecompressContext(ctx, key); err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, ErrNotFound) {
			t.Fatalf("storm read %d: %v", i, err)
		}
		<-done
	}
	// Goroutine counts settle asynchronously; poll briefly.
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutine leak after cancellation storm: %d -> %d", before, after)
	}
	// The client is still fully functional.
	if _, err := c.Compress(Task{Key: "final", Data: data}); err != nil {
		t.Fatal(err)
	}
	back, err := c.Decompress("final")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Data, data) {
		t.Fatal("post-storm round-trip mismatch")
	}
}

// TestTypedErrorTaxonomy: the exported sentinels match errors from the
// public API across layers.
func TestTypedErrorTaxonomy(t *testing.T) {
	c := newClient(t, Config{Tiers: faultTiers()})
	if _, err := c.Decompress("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown key: want ErrNotFound, got %v", err)
	}
	if err := c.Delete("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete unknown: want ErrNotFound, got %v", err)
	}
	// DegradedError unwraps to its cause and matches ErrDegraded.
	cause := fmt.Errorf("root: %w", ErrNoCapacity)
	derr := &DegradedError{Key: "k", Tier: "pfs", Cause: cause}
	if !errors.Is(derr, ErrDegraded) || !errors.Is(derr, ErrNoCapacity) {
		t.Fatalf("DegradedError taxonomy: %v", derr)
	}
	var target *DegradedError
	if !errors.As(fmt.Errorf("wrap: %w", derr), &target) || target.Tier != "pfs" {
		t.Fatalf("errors.As(DegradedError): %v", target)
	}
}

// TestInvalidFaultWindowRejected: bad scripts fail fast at New.
func TestInvalidFaultWindowRejected(t *testing.T) {
	_, err := New(Config{Tiers: faultTiers(), FaultInjector: &FaultInjector{
		Windows: []FaultWindow{{Tier: "tape", Mode: FaultOutage}},
	}})
	if err == nil || !strings.Contains(err.Error(), "unknown tier") {
		t.Fatalf("unknown tier must be rejected: %v", err)
	}
	_, err = New(Config{Tiers: faultTiers(), FaultInjector: &FaultInjector{
		Windows: []FaultWindow{{Tier: "ram", Mode: FaultCapacityLie, CapacityFraction: 1.5}},
	}})
	if err == nil {
		t.Fatal("out-of-range CapacityFraction must be rejected")
	}
}

// TestScriptedOutageAvailability is the fault-tolerance availability
// gate: a scripted single-tier outage on the virtual timeline during
// which every write must still succeed (spilled or degraded, never
// failed), followed by a recovery phase in which the dead tier must be
// probed, healed, and placed onto again, and a full read-back in which
// every payload must verify. The scenario is deterministic: faults,
// probes, and backoff all live on the virtual clock, and each phase is
// a fixed number of writes started at a fixed virtual time. The real
// oracle posts measured codec seconds to that clock, so the window is
// far wider than any phase's own writes can carry the clock, even under
// the race detector's ~10x slower codecs; the test fails, rather than
// drift into the next phase, if one ever does.
func TestScriptedOutageAvailability(t *testing.T) {
	const (
		outageStart = 1000.0
		outageEnd   = 2000.0
		perPhase    = 8
		taskSize    = 1 << 20
	)
	// A scarce RAM tier ahead of NVMe: tasks of taskSize cannot fit on
	// RAM even compressed, so healthy placement exercises NVMe — the
	// tier the script kills — and recovery is observable as NVMe reuse.
	c := newClient(t, Config{
		Tiers: []TierSpec{
			{Name: "ram", CapacityBytes: 64 << 10, LatencySec: 1e-6, BandwidthBps: 6e9, Lanes: 4},
			{Name: "nvme", CapacityBytes: 1 << 30, LatencySec: 30e-6, BandwidthBps: 2e9, Lanes: 2},
			{Name: "pfs", CapacityBytes: 64 << 30, LatencySec: 5e-3, BandwidthBps: 500e6, Lanes: 4},
		},
		EnableTelemetry: true,
		FaultInjector: &FaultInjector{Windows: []FaultWindow{
			{Tier: "nvme", StartSec: outageStart, EndSec: outageEnd, Mode: FaultOutage},
		}},
	})
	data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, taskSize, 7)

	var keys []string
	degraded := 0
	write := func(phase string, i int) *Report {
		t.Helper()
		key := fmt.Sprintf("%s-%d", phase, i)
		rep, err := c.Compress(Task{Key: key, Data: data})
		if err != nil {
			t.Fatalf("availability violated: phase %s write %d failed: %v", phase, i, err)
		}
		if rep.Degraded != nil {
			degraded++
		}
		keys = append(keys, key)
		return rep
	}
	// advanceTo starts the next phase at virtual time v, once the last
	// one has finished before edge, the window boundary between them.
	advanceTo := func(edge, v float64) {
		t.Helper()
		now := c.Stats().VirtualSeconds
		if now >= edge {
			t.Fatalf("the last phase ran the clock to %.3f s, past the window boundary at %.3f s", now, edge)
		}
		c.Advance(v - now)
	}
	usedTier := func(rep *Report, name string) bool {
		for _, st := range rep.SubTasks {
			if st.Tier == name {
				return true
			}
		}
		return false
	}

	// Phase A: healthy baseline. NVMe must carry sub-tasks.
	sawNVMe := false
	for i := 0; i < perPhase; i++ {
		sawNVMe = usedTier(write("healthy", i), "nvme") || sawNVMe
	}
	if !sawNVMe {
		t.Fatal("healthy phase never placed on nvme; the outage would be vacuous")
	}

	// Phase B: step into the outage. 100% write availability is the
	// gate: spills and degraded writes are fine, errors are not. Once
	// the health machine reacts, plans must stop naming the dead tier.
	// A spill hides a plan that named the dead tier, so the decision
	// audits are checked too: while nvme is offline and no recovery probe
	// is due, no plan may name it.
	advanceTo(outageStart, outageStart+1)
	c.Audits() // drops the healthy phase's decisions
	for i := 0; i < perPhase; i++ {
		probeDue := true
		for _, h := range c.Health() {
			if h.Name == "nvme" && h.State == "offline" {
				probeDue = c.Stats().VirtualSeconds >= h.NextProbeVSec
			}
		}
		if usedTier(write("outage", i), "nvme") {
			t.Fatalf("outage write %d placed a sub-task on the dead tier", i)
		}
		for _, a := range c.Audits() {
			if a.PlannedTier == "nvme" && !probeDue {
				t.Fatalf("outage write %d planned a sub-task on offline nvme with no recovery probe due", i)
			}
		}
	}
	offline := false
	for _, h := range c.Health() {
		if h.Name == "nvme" && h.State == "offline" {
			offline = true
		}
	}
	if !offline {
		t.Fatalf("health machine never took nvme offline: %+v", c.Health())
	}

	// Phase C: step past the outage and the recovery probe. The probe
	// must heal the tier and placement must reuse it.
	advanceTo(outageEnd, outageEnd+5)
	sawNVMe = false
	for i := 0; i < perPhase; i++ {
		sawNVMe = usedTier(write("recovered", i), "nvme") || sawNVMe
	}
	if !sawNVMe {
		t.Fatal("recovered nvme never reused by placement")
	}
	for _, h := range c.Health() {
		if h.Name == "nvme" && h.State != "healthy" {
			t.Fatalf("nvme not healed after recovery: %+v", h)
		}
	}

	// Read-back: every payload written in any phase must verify (the
	// sub-task CRC gate runs on every read).
	for _, key := range keys {
		rep, err := c.Decompress(key)
		if err != nil {
			t.Fatalf("read-back %q: %v", key, err)
		}
		ok := bytes.Equal(rep.Data, data)
		rep.Release()
		if !ok {
			t.Fatalf("read-back %q: payload mismatch", key)
		}
	}

	snap := c.Snapshot()
	t.Logf("%d writes (%d per phase), 0 failures, %d degraded; retries=%d degraded_writes=%d replans=%d",
		len(keys), perPhase, degraded, snap.Counters["hc_retries_total"],
		snap.Counters["hc_degraded_writes_total"], snap.Counters["hc_client_replans_total"])
	transitions := 0
	for _, ev := range c.FaultEvents() {
		if ev.Tier == "nvme" {
			transitions++
			t.Logf("event: nvme %s -> %s at v=%.3fs (streak %d)", ev.From, ev.To, ev.VTime, ev.Streak)
		}
	}
	if transitions < 3 {
		t.Fatalf("expected at least degraded/offline/healthy transitions, saw %d", transitions)
	}
}
