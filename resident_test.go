package hcompress

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"hcompress/internal/bufpool"
	"hcompress/internal/stats"
)

// residentClasses are the four data classes the memory tests write.
var residentClasses = []struct {
	typ  stats.DataType
	dist stats.Dist
}{
	{stats.TypeFloat, stats.Gamma},
	{stats.TypeInt, stats.Normal},
	{stats.TypeText, stats.Uniform},
	{stats.TypeBinary, stats.Exponential},
}

// residentGauge sums hc_tier_resident_bytes over every tier and shard of
// a snapshot.
func residentGauge(snap MetricsSnapshot) int64 {
	var sum float64
	for name, v := range snap.Gauges {
		if strings.HasPrefix(name, "hc_tier_resident_bytes{") {
			sum += v
		}
	}
	return int64(sum)
}

// TestRAMTierResidentBound fills a RAM tier to three quarters with every
// data class × task size × priority and checks what the tier keeps: each
// payload buffer may exceed its payload only by the arena's class step
// (at most max(4 KiB, 1.25 × payload)), and the tier's resident gauge
// must equal the buffers' summed capacity. The RAM tier is the default
// hierarchy's, shrunk to 1 MiB so a cell fills in a few dozen writes; the
// ratio does not depend on the capacity.
func TestRAMTierResidentBound(t *testing.T) {
	if raceEnabled {
		t.Skip("36 fills through the real codecs take ~25 s under -race; the class bound does not depend on it")
	}
	const ramCap = 1 << 20
	tiers := DefaultTiers()
	tiers[0].CapacityBytes = ramCap
	for _, pri := range []struct {
		name string
		p    Priorities
	}{{"async", PriorityAsync}, {"archival", PriorityArchival}, {"equal", PriorityEqual}} {
		for ci, dc := range residentClasses {
			for _, size := range []int{16 << 10, 64 << 10, 100 << 10} {
				c := newClient(t, Config{Tiers: tiers, Priorities: pri.p, EnableTelemetry: true})
				var held, bufs int64
				for i := 0; i < 256 && c.st.Used(0) < ramCap*3/4; i++ {
					key := fmt.Sprintf("k%d", i)
					rep, err := c.Compress(Task{Key: key, Data: stats.GenBuffer(dc.typ, dc.dist, size, int64(i%8))})
					if err != nil {
						t.Fatal(err)
					}
					for k, sub := range rep.SubTasks {
						if sub.Tier != tiers[0].Name {
							continue
						}
						b, err := c.st.Peek(0, fmt.Sprintf("%s#%d", key, k))
						if err != nil {
							t.Fatal(err)
						}
						n, cp := int64(len(b.Data)), int64(cap(b.Data))
						c.st.Release(b)
						if cp > max(4<<10, n*5/4) {
							t.Fatalf("%s/class%d/%dK: a %d-byte payload is kept in a %d-byte buffer", pri.name, ci, size>>10, n, cp)
						}
						held, bufs = held+cp, bufs+1
					}
				}
				used := c.st.Used(0)
				gauge := int64(c.Snapshot().Gauges[`hc_tier_resident_bytes{tier="ram"}`])
				if gauge != held {
					t.Fatalf("%s/class%d/%dK: resident gauge %d, payload buffers sum to %d", pri.name, ci, size>>10, gauge, held)
				}
				if used > 0 {
					t.Logf("%-8s class%d %3dK: %3d buffers, used %7d (%.0f%% of ram), resident/used %.3f",
						pri.name, ci, size>>10, bufs, used, 100*float64(used)/ramCap, float64(gauge)/float64(used))
				}
				c.Close()
			}
		}
	}
}

// settleResident runs the collector until the resident pool's
// outstanding bytes stop moving (stores dropped by earlier tests release
// theirs from a cleanup), and returns them with the chunks each class
// keeps mapped.
func settleResident() (int64, []int) {
	out, mapped := bufpool.Resident()
	for i := 0; i < 50; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		again, m := bufpool.Resident()
		if again == out && i >= 2 {
			return again, m
		}
		out, mapped = again, m
	}
	return out, mapped
}

// waitResident runs the collector until the resident pool's outstanding
// bytes fall back to want, failing after a few seconds.
func waitResident(t *testing.T, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		out, _ := bufpool.Resident()
		if out == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d resident bytes still out, want 0", out-want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// leakTiers is an all-memory hierarchy whose RAM tier fills after a few
// dozen writes, so demotion moves payloads from one mem tier to the other.
func leakTiers() []TierSpec {
	return []TierSpec{
		{Name: "ram", CapacityBytes: 256 << 10, LatencySec: 1e-6, BandwidthBps: 6e9, Lanes: 4},
		{Name: "nvme", CapacityBytes: 256 << 20, LatencySec: 30e-6, BandwidthBps: 2e9, Lanes: 2},
	}
}

// TestResidentLeakAccounting runs a seeded op stream — batches,
// overwrites, deletes, reads through the read cache, cancelled batch
// calls and demotion — over a 2-shard router with mem tiers. Whenever
// the router is idle, the resident pool's outstanding bytes must equal
// what the tiers report holding (Σ hc_tier_resident_bytes); once every
// key is deleted nothing may be out and each class may keep at most one
// spare chunk mapped; Close returns everything, and so does dropping a
// router that was never closed.
func TestResidentLeakAccounting(t *testing.T) {
	out0, mapped0 := settleResident()
	r, err := NewRouter(Config{Tiers: leakTiers(), Priorities: PriorityEqual,
		ReadCacheFraction: 0.25, ReadCacheMinTouches: 1, EnableTelemetry: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rng := rand.New(rand.NewSource(1))
	const nKeys = 24
	keys := func(n int) []string {
		var out []string
		for _, i := range rng.Perm(nKeys)[:n] {
			out = append(out, fmt.Sprintf("k%d", i))
		}
		return out
	}
	task := func(key string) Task {
		dc := residentClasses[rng.Intn(len(residentClasses))]
		size := []int{16 << 10, 64 << 10, 100 << 10}[rng.Intn(3)]
		return Task{Key: key, Data: stats.GenBuffer(dc.typ, dc.dist, size, rng.Int63())}
	}
	tasks := func(n int) []Task {
		var out []Task
		for _, k := range keys(n) {
			out = append(out, task(k))
		}
		return out
	}
	// cancelled returns a context cancelled now or a little later, so a
	// call sees it at a seeded point of its pipeline.
	cancelled := func() context.Context {
		ctx, cancel := context.WithCancel(context.Background())
		if d := rng.Intn(3); d == 0 {
			cancel()
		} else {
			time.AfterFunc(time.Duration(d)*200*time.Microsecond, cancel)
		}
		return ctx
	}
	release := func(reps []*Report) {
		for _, rep := range reps {
			if rep != nil {
				rep.Release()
			}
		}
	}
	check := func(step string) {
		t.Helper()
		out, _ := bufpool.Resident()
		if got, want := out-out0, residentGauge(r.Snapshot()); got != want {
			t.Fatalf("%s: %d resident bytes out, the tiers report holding %d", step, got, want)
		}
	}

	for step := 0; step < 120; step++ {
		var name string
		switch op := rng.Intn(7); op {
		case 0:
			name = "batch write"
			if _, err := r.CompressBatch(tasks(4)); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case 1:
			name = "write"
			if _, err := r.Compress(task(keys(1)[0])); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case 2:
			name = "delete"
			_ = r.Delete(keys(1)[0]) // an absent key is ErrNotFound
		case 3:
			name = "batch read"
			reps, _ := r.DecompressBatch(keys(4)) // absent keys fail alone
			release(reps)
		case 4:
			name = "cancelled batch write"
			_, _ = r.CompressBatchContext(cancelled(), tasks(4))
		case 5:
			name = "cancelled batch read"
			reps, _ := r.DecompressBatchContext(cancelled(), keys(4))
			release(reps)
		case 6:
			name = "demote"
			r.Advance(1)
			for _, s := range r.shards {
				s.demoteOnce(context.Background(), 64)
			}
		}
		check(fmt.Sprintf("step %d (%s)", step, name))
	}

	for i := 0; i < nKeys; i++ {
		_ = r.Delete(fmt.Sprintf("k%d", i))
	}
	check("every key deleted")
	out, mapped := bufpool.Resident()
	if out != out0 {
		t.Fatalf("every key deleted: %d resident bytes still out", out-out0)
	}
	for ci, m := range mapped {
		if limit := max(mapped0[ci], 1); out0 == 0 && m > 1 || m > limit+1 {
			t.Errorf("every key deleted: class %d keeps %d chunks mapped (%d before the test)", ci, m, mapped0[ci])
		}
	}

	if _, err := r.CompressBatch(tasks(8)); err != nil {
		t.Fatal(err)
	}
	check("rewrite")
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if out, _ := bufpool.Resident(); out != out0 {
		t.Fatalf("after Close %d resident bytes are still out", out-out0)
	}

	// A router dropped without Close (width-1 pool and no background
	// loops, so no goroutine keeps it reachable) returns its payloads
	// once it is collected.
	func() {
		dropped, err := NewRouter(Config{Tiers: leakTiers(), Parallelism: 1, DisablePrefetch: true}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dropped.CompressBatch(tasks(8)); err != nil {
			t.Fatal(err)
		}
		if out, _ := bufpool.Resident(); out == out0 {
			t.Fatal("the dropped router's payloads are not resident buffers")
		}
	}()
	waitResident(t, out0)
}

// TestOverwriteFreesSurplusSubTasks overwrites a task stored as several
// sub-tasks with one stored as fewer: the surplus sub-tasks of the old
// write must leave the store with it.
func TestOverwriteFreesSurplusSubTasks(t *testing.T) {
	c := newClient(t, Config{Tiers: leakTiers()})
	big, err := c.Compress(Task{Key: "x", Data: stats.GenBuffer(stats.TypeFloat, stats.Gamma, 1<<20, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(big.SubTasks) < 2 {
		t.Fatalf("a 1 MiB task over a 256 KiB RAM tier took %d sub-task, want several", len(big.SubTasks))
	}
	small, err := c.Compress(Task{Key: "x", Data: stats.GenBuffer(stats.TypeFloat, stats.Gamma, 4<<10, 2)})
	if err != nil {
		t.Fatal(err)
	}
	var used int64
	for _, st := range c.Status() {
		used += st.UsedBytes
	}
	if n := c.st.Len(); n != len(small.SubTasks) || used != small.StoredBytes {
		t.Fatalf("after overwriting %d sub-tasks with %d: the store holds %d blobs and %d bytes, want %d bytes",
			len(big.SubTasks), len(small.SubTasks), n, used, small.StoredBytes)
	}
	if err := c.Delete("x"); err != nil {
		t.Fatal(err)
	}
	if n := c.st.Len(); n != 0 {
		t.Fatalf("Delete left %d blobs", n)
	}
}

// TestBatchOverwritesOneKeyTwice writes one key twice in one batch, first
// small then large, over an older large write of the key: the batch's
// last write must read back whole, and only its sub-tasks may stay in
// the store.
func TestBatchOverwritesOneKeyTwice(t *testing.T) {
	c := newClient(t, Config{Tiers: leakTiers()})
	if _, err := c.Compress(Task{Key: "x", Data: stats.GenBuffer(stats.TypeFloat, stats.Gamma, 1<<20, 1)}); err != nil {
		t.Fatal(err)
	}
	large := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 1<<20, 3)
	reps, err := c.CompressBatch([]Task{
		{Key: "x", Data: stats.GenBuffer(stats.TypeFloat, stats.Gamma, 4<<10, 2)},
		{Key: "x", Data: large},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps[1].SubTasks) < 2 {
		t.Fatalf("a 1 MiB task over a 256 KiB RAM tier took %d sub-task, want several", len(reps[1].SubTasks))
	}
	got, err := c.Decompress("x")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, large) {
		t.Fatal("x does not read back as the batch's last write")
	}
	got.Release()
	if n := c.st.Len(); n != len(reps[1].SubTasks) {
		t.Fatalf("the store holds %d blobs, want the last write's %d", n, len(reps[1].SubTasks))
	}
}
