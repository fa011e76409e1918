package hcompress

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"hcompress/internal/stats"
)

// demoteTiers is a hierarchy whose fast tier fills after a handful of
// 1 MiB tasks, so watermark behavior is easy to provoke.
func demoteTiers() []TierSpec {
	return []TierSpec{
		{Name: "ram", CapacityBytes: 8 << 20, LatencySec: 1e-6, BandwidthBps: 6e9, Lanes: 4},
		{Name: "nvme", CapacityBytes: 256 << 20, LatencySec: 30e-6, BandwidthBps: 2e9, Lanes: 2},
		{Name: "pfs", CapacityBytes: 64 << 30, LatencySec: 5e-3, BandwidthBps: 500e6, Lanes: 4},
	}
}

// fillTier0 writes modeled tasks until tier 0 crosses frac of capacity;
// it skips the test if the engine refuses to place there.
func fillTier0(t *testing.T, c *Client, frac float64) {
	t.Helper()
	capB := float64(c.hier.Tiers[0].Capacity)
	for i := 0; i < 64; i++ {
		data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 1<<20, int64(i))
		if _, err := c.Compress(Task{Key: fmt.Sprintf("fill%d", i), Data: data,
			DataType: "float", Distribution: "gamma"}); err != nil {
			t.Fatal(err)
		}
		if float64(c.st.Used(0)) >= frac*capB {
			return
		}
	}
	t.Skipf("engine never filled tier 0 past %.0f%% (used %d of %.0f)", frac*100, c.st.Used(0), capB)
}

// TestDemoteOnceRespectsWatermarks drives one demotion pass directly:
// above the high watermark it must drain tier 0 to the low watermark;
// below the high watermark it must not touch anything.
func TestDemoteOnceRespectsWatermarks(t *testing.T) {
	c := newClient(t, Config{Tiers: demoteTiers(), modeled: true})
	fillTier0(t, c, 0.86)
	capB := float64(c.hier.Tiers[0].Capacity)

	c.demoteOnce(context.Background(), 64)
	if used := float64(c.st.Used(0)); used > 0.70*capB {
		t.Errorf("after demotion pass tier 0 holds %.0f bytes, want <= low watermark %.0f", used, 0.70*capB)
	}

	// Below the high watermark a pass is a no-op.
	before := c.st.Used(0)
	c.demoteOnce(context.Background(), 64)
	if got := c.st.Used(0); got != before {
		t.Errorf("pass below high watermark moved data: %d -> %d", before, got)
	}

	// Everything must still read back.
	for i := 0; ; i++ {
		key := fmt.Sprintf("fill%d", i)
		if _, _, ok := c.mgr.TaskInfo(key); !ok {
			break
		}
		if _, err := c.Decompress(key); err != nil {
			t.Fatalf("read %s after demotion: %v", key, err)
		}
	}
}

// TestBackgroundDemoterDrainsBurst checks the DemotionInterval loop end
// to end: after a burst overfills tier 0, the background goroutine must
// bring it under the low watermark without any data-path call.
func TestBackgroundDemoterDrainsBurst(t *testing.T) {
	c := newClient(t, Config{
		Tiers:            demoteTiers(),
		modeled:          true,
		DemotionInterval: time.Millisecond,
		EnableTelemetry:  true,
	})
	fillTier0(t, c, 0.86)
	capB := float64(c.hier.Tiers[0].Capacity)
	deadline := time.Now().Add(10 * time.Second)
	for float64(c.st.Used(0)) > 0.70*capB {
		if time.Now().After(deadline) {
			t.Fatalf("background demoter never drained tier 0: %d of %.0f", c.st.Used(0), capB)
		}
		time.Sleep(2 * time.Millisecond)
	}
	snap := c.Snapshot()
	if snap.Counters["hc_demoter_slices_total"] == 0 {
		t.Error("demoter ran but recorded no slices")
	}
	if snap.Counters["hc_demoter_bytes_total"] == 0 {
		t.Error("demoter ran but recorded no bytes")
	}
}

// TestDemoterRaceCleanUnderChurn runs the background demoter at full
// tilt against concurrent Compress/Decompress/Delete traffic. Its value
// doubles under -race in CI.
func TestDemoterRaceCleanUnderChurn(t *testing.T) {
	c := newClient(t, Config{
		Tiers:                 demoteTiers(),
		modeled:               true,
		DemotionInterval:      time.Millisecond,
		DemotionSliceSubTasks: 4,
	})
	const workers = 4
	const opsPer = 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 1<<20, int64(w))
			for i := 0; i < opsPer; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				if _, err := c.Compress(Task{Key: key, Data: data,
					DataType: "float", Distribution: "gamma"}); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Decompress(key); err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					if err := c.Delete(key); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCloseStopsPoolAndDemoter is the goroutine-leak gate: Close must
// stop the shared worker pool and the demotion loop, returning the
// process to its pre-client goroutine count.
func TestCloseStopsPoolAndDemoter(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()
	c, err := New(Config{
		Tiers:            demoteTiers(),
		modeled:          true,
		Parallelism:      4,
		DemotionInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 1<<20, 1)
	if _, err := c.Compress(Task{Key: "k", Data: data}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CompressBatch([]Task{{Key: "b1", Data: data}, {Key: "b2", Data: data}}); err != nil {
		t.Fatal(err)
	}
	if during := runtime.NumGoroutine(); during <= before {
		t.Logf("note: no extra goroutines observed while open (%d vs %d)", during, before)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(2 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines alive after Close, started with %d\n%s",
			got, before, buf[:runtime.Stack(buf, true)])
	}
}
