package hcompress

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

func durableCfg(dir string) Config {
	return Config{
		Tiers: []TierSpec{
			// Both tiers file-backed so every piece of every task survives a
			// reopen regardless of how the planner split it.
			{Name: "fast", CapacityBytes: 1 << 30, LatencySec: 1e-5, BandwidthBps: 4e9, Lanes: 4,
				Backend: "file", CostPerGBMonth: 1.0},
			{Name: "nvme", CapacityBytes: 64 << 30, LatencySec: 1e-4, BandwidthBps: 2e9, Lanes: 4,
				Backend: "file", CostPerGBMonth: 0.30},
		},
		DataDir: dir,
	}
}

// TestFileBackedTierSurvivesClientReopen drives the public API end to
// end: compress onto file-backed tiers, close the client, reopen over
// the same DataDir, and require the payloads to come back readable —
// the schemas are rebuilt from the self-identifying on-media sub-task
// headers — with the same bytes charged against the capacity ledgers,
// and Delete to drain every journal index back to zero.
func TestFileBackedTierSurvivesClientReopen(t *testing.T) {
	dir := t.TempDir()
	c := newClient(t, durableCfg(dir))
	payloads := map[string][]byte{}
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("k%d", i)
		payloads[k] = []byte(strings.Repeat(fmt.Sprintf("durable tiered compression %d. ", i), 4000))
		if _, err := c.Compress(Task{Key: k, Data: payloads[k]}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Status()
	var used [2]int64
	for i, ts := range st {
		if ts.Backend != "file" {
			t.Fatalf("tier %d backend = %q, want file", i, ts.Backend)
		}
		used[i] = ts.UsedBytes
	}
	if used[0]+used[1] == 0 {
		t.Fatal("nothing stored; the test proves nothing")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := newClient(t, durableCfg(dir))
	st2 := c2.Status()
	for i, ts := range st2 {
		if ts.UsedBytes != used[i] {
			t.Fatalf("tier %d recovered %d bytes, want %d", i, ts.UsedBytes, used[i])
		}
	}
	for k, want := range payloads {
		rep, err := c2.Decompress(k)
		if err != nil {
			t.Fatalf("decompress %s after reopen: %v", k, err)
		}
		if !bytes.Equal(rep.Data, want) {
			t.Fatalf("payload mismatch for %s after reopen", k)
		}
		rep.Release()
	}
	for k := range payloads {
		if err := c2.Delete(k); err != nil {
			t.Fatalf("delete %s after reopen: %v", k, err)
		}
	}
	for i, ts := range c2.Status() {
		if ts.UsedBytes != 0 {
			t.Fatalf("tier %d holds %d bytes after deleting every recovered task", i, ts.UsedBytes)
		}
	}
}

// TestRecoveredOrphanPiecesReclaimed covers the split-task boundary: a
// task striped across a volatile tier and a durable one loses its
// volatile pieces in a restart, so the surviving durable pieces are
// unreadable. Reopen must reclaim them — not strand the bytes against
// the capacity ledger forever — and report the task as not found.
func TestRecoveredOrphanPiecesReclaimed(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Tiers: []TierSpec{
			{Name: "ram", CapacityBytes: 64 << 10, LatencySec: 1e-6, BandwidthBps: 6e9, Lanes: 4},
			{Name: "nvme", CapacityBytes: 64 << 30, LatencySec: 1e-4, BandwidthBps: 2e9, Lanes: 4,
				Backend: "file", CostPerGBMonth: 0.30},
		},
		DataDir: dir,
	}
	c := newClient(t, cfg)
	data := []byte(strings.Repeat("striped across volatile and durable tiers. ", 12000))
	if _, err := c.Compress(Task{Key: "k", Data: data}); err != nil {
		t.Fatal(err)
	}
	st := c.Status()
	if st[1].UsedBytes == 0 {
		t.Fatal("nothing spilled to the durable tier; the test proves nothing")
	}
	split := st[0].UsedBytes > 0 // did the task leave a piece on the volatile tier?
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := newClient(t, cfg)
	st2 := c2.Status()
	if st2[0].UsedBytes != 0 {
		t.Fatalf("volatile tier recovered %d bytes, want 0", st2[0].UsedBytes)
	}
	rep, err := c2.Decompress("k")
	if split {
		// The volatile pieces are gone: the task must be gone too, and the
		// durable leftovers reclaimed rather than stranded.
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("decompress of a partially lost task: err = %v, want ErrNotFound", err)
		}
		if got := c2.Status()[1].UsedBytes; got != 0 {
			t.Fatalf("durable tier strands %d bytes of an unreadable task", got)
		}
	} else {
		// The whole task lived on the durable tier: it must read back.
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rep.Data, data) {
			t.Fatal("payload mismatch after reopen")
		}
		rep.Release()
	}
}

// TestCloudTierConfig exercises the public cloud-tier preset through the
// client constructor and the Priorities.Cost pass-through.
func TestCloudTierConfig(t *testing.T) {
	tiers := DefaultTiers()
	tiers = append(tiers, CloudTierSpec(1<<40))
	c := newClient(t, Config{
		Tiers:      tiers,
		Priorities: Priorities{CompressionSpeed: 0.3, DecompressionSpeed: 0.3, Ratio: 0.3, Cost: 0.1},
	})
	data := []byte(strings.Repeat("cloud floor under the hierarchy. ", 4000))
	if _, err := c.Compress(Task{Key: "k", Data: data}); err != nil {
		t.Fatal(err)
	}
	back, err := c.Decompress("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Data, data) {
		t.Fatal("round-trip mismatch with a cloud tier configured")
	}
	st := c.Status()
	if got := st[len(st)-1].Backend; got != "cloud" {
		t.Fatalf("last tier backend = %q, want cloud", got)
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd on this platform: %v", err)
	}
	return len(ents)
}

// TestFailedNewReleasesEverything: a constructor that fails must leave
// the process as it found it — no journal file descriptors, no pool or
// listener goroutines — whichever check fails and however late, and the
// DataDir it touched must open cleanly afterwards.
func TestFailedNewReleasesEverything(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"metrics address in use", func(c *Config) { c.MetricsAddr = taken.Addr().String() }},
		{"unknown codec", func(c *Config) { c.Codecs = []string{"zstd"} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableCfg(dir)
			cfg.Parallelism = 4 // a pool with worker goroutines to leak
			tc.mutate(&cfg)
			fds, goroutines := openFDs(t), runtime.NumGoroutine()
			for i := 0; i < 20; i++ {
				if c, err := New(cfg); err == nil {
					c.Close()
					t.Fatal("New accepted the broken config")
				}
			}
			if got := openFDs(t); got > fds {
				t.Errorf("20 failed New calls left %d file descriptors open", got-fds)
			}
			// Pool.Close waits for its workers' wg.Done, which a goroutine
			// calls a moment before it is gone from the count.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := runtime.NumGoroutine(); got > goroutines {
				t.Errorf("20 failed New calls left %d goroutines running", got-goroutines)
			}
			c, err := New(durableCfg(dir))
			if err != nil {
				t.Fatalf("DataDir does not open cleanly after failed constructions: %v", err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
