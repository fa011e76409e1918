package hcompress

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"hcompress/internal/stats"
)

// throughputWriters is the concurrency level the acceptance gate and the
// benchmark both run at: 8 concurrent clients sharing one library handle.
const throughputWriters = 8

// runWriteLoad drives total writes (plus deletes, to keep occupancy
// flat) across throughputWriters goroutines and returns ops/second.
// batch <= 1 issues per-op Compress calls; batch > 1 groups writes into
// CompressBatch calls of that size.
func runWriteLoad(tb testing.TB, c *Client, data []byte, total, batch int) float64 {
	tb.Helper()
	var next atomic.Int64
	var wg sync.WaitGroup
	startAll := time.Now()
	for w := 0; w < throughputWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if batch <= 1 {
					i := next.Add(1) - 1
					if i >= int64(total) {
						return
					}
					key := fmt.Sprintf("w%d-%d", w, i)
					if _, err := c.Compress(Task{Key: key, Data: data,
						DataType: "float", Distribution: "gamma"}); err != nil {
						tb.Error(err)
						return
					}
					if err := c.Delete(key); err != nil {
						tb.Error(err)
						return
					}
				} else {
					lo := next.Add(int64(batch)) - int64(batch)
					if lo >= int64(total) {
						return
					}
					hi := lo + int64(batch)
					if hi > int64(total) {
						hi = int64(total)
					}
					tasks := make([]Task, 0, hi-lo)
					for i := lo; i < hi; i++ {
						tasks = append(tasks, Task{Key: fmt.Sprintf("w%d-%d", w, i),
							Data: data, DataType: "float", Distribution: "gamma"})
					}
					if _, err := c.CompressBatch(tasks); err != nil {
						tb.Error(err)
						return
					}
					for i := range tasks {
						if err := c.Delete(tasks[i].Key); err != nil {
							tb.Error(err)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return float64(total) / time.Since(startAll).Seconds()
}

// gatePairs is how many interleaved A/B pairs each wall-clock gate takes.
const gatePairs = 7

// medianPairRatio is the statistic every wall-clock gate asserts on: it
// takes gatePairs interleaved measurements of the two sides, alternating
// which runs first so drift and a busy neighbour hit both alike, and
// returns the median of the per-pair ratio(a, b) values. A single
// disturbed measurement moves one ratio, not the median — unlike a
// best-of-3 per side or one p99 of 1 200 samples, which this replaces.
//
// A ratio of two slowed-down sides survives a busy host; a ratio that
// depends on how many CPUs the process really has does not (batching's
// gain over per-op submission is 1.9x on two cores and 1.4x when
// another package's tests leave us one core's worth of time slices). So
// each pair starts once the host grants the process the CPU it asks
// for, and is measured again if that stopped being true by its end —
// within a budget, after which pairs are taken as they come.
func medianPairRatio(t *testing.T, a, b func() float64, ratio func(a, b float64) float64) float64 {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	quiet := func() bool { return cpuShare() >= 0.9 }
	ratios := make([]float64, 0, gatePairs)
	for len(ratios) < gatePairs {
		for !quiet() && time.Now().Before(deadline) {
			time.Sleep(250 * time.Millisecond) // let the neighbour finish sooner
		}
		var va, vb float64
		if len(ratios)%2 == 0 {
			va, vb = a(), b()
		} else {
			vb, va = b(), a()
		}
		if !quiet() && time.Now().Before(deadline) {
			continue
		}
		ratios = append(ratios, ratio(va, vb))
	}
	sort.Float64s(ratios)
	t.Logf("per-pair ratios %.3f", ratios)
	return ratios[gatePairs/2]
}

// cpuShare spins on every P for 20 ms and returns the share of that CPU
// time the host actually gave the process: about 1 on an idle host, about
// 0.5 when a neighbour is as busy as we are.
func cpuShare() float64 {
	cpuTime := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	procs := runtime.GOMAXPROCS(0)
	cpu0, start := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < 20*time.Millisecond {
			}
		}()
	}
	wg.Wait()
	return (cpuTime() - cpu0).Seconds() / (time.Since(start).Seconds() * float64(procs))
}

// BenchmarkClientThroughput is the throughput engine's gate benchmark:
// 8 concurrent clients writing 256 KiB tasks through one handle while
// the background demoter runs, per-op vs batched submission. Compare
// the two sub-benchmarks' ops/s (and MB/s via the byte rate).
func BenchmarkClientThroughput(b *testing.B) {
	data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 256<<10, 3)
	for _, mode := range []struct {
		name  string
		batch int
	}{{"PerOp", 1}, {"Batched16", 16}} {
		b.Run(mode.name, func(b *testing.B) {
			c, err := New(Config{DemotionInterval: 5 * time.Millisecond})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			ops := runWriteLoad(b, c, data, b.N, mode.batch)
			b.ReportMetric(ops, "ops/s")
		})
	}
}

// TestBatchThroughputGate enforces the ISSUE 4 acceptance bar: batched
// submission must reach at least 1.5x the per-op ops/s at 8 concurrent
// clients. It runs in modeled mode with full type/distribution hints and
// small tasks, so the per-task work is dominated by exactly the overhead
// batching amortizes (planning, clock round-trips, lock traffic) rather
// than by codec CPU that is identical in both modes.
func TestBatchThroughputGate(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement is meaningless under -short")
	}
	if raceEnabled {
		t.Skip("-race serializes everything; throughput ratios are meaningless")
	}
	data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 64<<10, 3)
	// A fresh client per measurement, 20 000 ops each, isolates the
	// pairs: no measurement inherits the stored tasks, tier occupancy or
	// learned costs of the ones before it, so its place in the sequence
	// does not matter.
	const total = 20000
	side := func(batch int) func() float64 {
		return func() float64 {
			c := newClient(t, Config{modeled: true})
			defer c.Close()
			runWriteLoad(t, c, data, 500, 1) // warm caches and models
			return runWriteLoad(t, c, data, total, batch)
		}
	}
	ratio := medianPairRatio(t, side(1), side(16),
		func(perOp, batched float64) float64 { return batched / perOp })
	if ratio < 1.5 {
		t.Errorf("batched submission is %.2fx per-op ops/s (median of %d pairs), want >= 1.5x", ratio, gatePairs)
	}
}

// writeP99 measures the p99 wall latency, in seconds, of single-op writes
// under the gate's standard concurrency.
func writeP99(tb testing.TB, c *Client, data []byte, total int) float64 {
	tb.Helper()
	lats := make([]time.Duration, total)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < throughputWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(total) {
					return
				}
				key := fmt.Sprintf("p%d-%d", w, i)
				op := time.Now()
				if _, err := c.Compress(Task{Key: key, Data: data,
					DataType: "float", Distribution: "gamma"}); err != nil {
					tb.Error(err)
					return
				}
				lats[i] = time.Since(op)
				if err := c.Delete(key); err != nil {
					tb.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[total*99/100].Seconds()
}

// p99OverLimit is the per-pair ratio of the two write-p99 gates: the
// treated side's p99 over its allowance, the untreated p99 plus frac of
// it plus 2 ms for timer noise. At or below 1 the pair is within the bar.
func p99OverLimit(frac float64) func(off, on float64) float64 {
	return func(off, on float64) float64 { return on / (off*(1+frac) + 2e-3) }
}

// TestDemotionLatencyGate enforces the second ISSUE 4 acceptance bar:
// running the background demoter concurrently must degrade write p99
// latency by less than 20% (plus a small absolute allowance for CI
// timer noise — demotion slices are bounded, so the injected pauses are
// microseconds, far below the allowance).
func TestDemotionLatencyGate(t *testing.T) {
	if testing.Short() {
		t.Skip("latency measurement is meaningless under -short")
	}
	if raceEnabled {
		t.Skip("-race distorts latency; the gate is meaningless")
	}
	data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 256<<10, 3)
	const total = 1200

	side := func(interval time.Duration) func() float64 {
		c := newClient(t, Config{
			Tiers:                 demoteTiers(),
			DemotionInterval:      interval,
			DemotionSliceSubTasks: 8,
		})
		writeP99(t, c, data, 200) // warm-up
		return func() float64 { return writeP99(t, c, data, total) }
	}
	if r := medianPairRatio(t, side(0), side(time.Millisecond), p99OverLimit(0.20)); r > 1 {
		t.Errorf("write p99 with demotion on is %.2fx its allowance (off + 20%% + 2ms, median of %d pairs), want <= 1", r, gatePairs)
	}
}
