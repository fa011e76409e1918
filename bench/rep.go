package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"hcompress"
	"hcompress/bench/trace"
	"hcompress/internal/bufpool"
)

// views are the counts read from the program's exported views at one
// instant; a rep reads them before and after its timed section.
type views struct {
	stats   hcompress.Stats
	cache   hcompress.CacheStats
	mallocs uint64
	allocB  uint64
	bpHit   int64
	bpMiss  int64
}

func readViews(st *stack) views {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	hit, miss, _, _ := bufpool.Stats()
	return views{
		stats: st.Stats(), cache: st.CacheStats(),
		mallocs: ms.Mallocs, allocB: ms.TotalAlloc,
		bpHit: hit, bpMiss: miss,
	}
}

// repResult is what one rep — a fresh stack, a set-up section and a
// timed section over the run's corpus — observed.
type repResult struct {
	setupSec float64 // construction + preload + fixed warm-up
	wallSec  float64 // timed section
	cpuSec   float64 // user+sys CPU over the timed section
	m        *meter  // timed section, all clients merged
	// Items the set-up section attempted and failed: they are outside
	// every metric but still count against correctness.
	setupAttempted, setupFailed int64
	before                      views
	after                       views
	status                      []hcompress.TierStatusReport // at the end of the timed section
	// Telemetry snapshots around the timed section (traced rep only).
	snap0, snap1 hcompress.MetricsSnapshot
}

func (r *repResult) opsPerSec() float64 { return ratio(float64(r.m.writes+r.m.reads), r.wallSec) }

// repSpec selects how one rep differs from the measured default.
type repSpec struct {
	dur    time.Duration
	tr     *trace.Recorder // non-nil on the traced rep
	shards int             // 0 = the workload's own
}

// runRep builds a fresh stack, runs the set-up section (what setup_s
// times), then runs every client's closed loop for dur.
func runRep(def workloadDef, corp *corpus, o options, spec repSpec) (*repResult, error) {
	shards := spec.shards
	if shards == 0 {
		shards = def.shards
	}
	// Collect the previous rep's stack and hand its pages back now, not
	// inside this rep's clocks: otherwise peak_rss_mb measures how far
	// the scavenger lagged, not what a rep needs.
	debug.FreeOSMemory()
	t0 := time.Now()
	cfg := def.config()
	cfg.EnableTelemetry = spec.tr != nil
	st, err := openStack(cfg, shards)
	if err != nil {
		return nil, fmt.Errorf("%s: building the stack: %w", def.name, err)
	}
	res := &repResult{}
	drivers := make([]*driver, o.clients)
	streams := make([]stream, o.clients)
	for c := range drivers {
		drivers[c] = &driver{
			st: st, corp: corp, tr: spec.tr,
			m:      newMeter(corp.cycle, shards),
			rng:    rand.New(rand.NewSource(o.seed*7919 + int64(c))),
			prefix: fmt.Sprintf("c%d-", c),
		}
		streams[c] = def.newStream(drivers[c], o.clients)
	}
	warmup := max(def.warmup/o.div, 1)
	eachClient(o.clients, func(c int) {
		streams[c].preload()
		for i := 0; i < warmup; i++ {
			streams[c].step()
		}
	})
	for _, d := range drivers {
		res.setupAttempted += d.m.attempted
		res.setupFailed += d.m.failed
		d.m = newMeter(corp.cycle, shards)
	}
	res.setupSec = time.Since(t0).Seconds()

	if spec.tr != nil {
		res.snap0 = st.Snapshot()
	}
	res.before = readViews(st)
	cpu0 := cpuSeconds()
	start := time.Now()
	// A section ends once dur has passed and one whole corpus cycle of
	// writes is in, so that even a one-second smoke run has a ratio over
	// a full class mix; the hard stop bounds a stream that writes rarely.
	eachClient(o.clients, func(c int) {
		d := drivers[c]
		for {
			streams[c].step()
			el := time.Since(start)
			if el >= spec.dur && (d.m.cycles > 0 || el >= spec.dur+20*time.Second) {
				return
			}
		}
	})
	res.wallSec = time.Since(start).Seconds()
	res.cpuSec = cpuSeconds() - cpu0
	res.after = readViews(st)
	res.status = st.Status()
	if spec.tr != nil {
		res.snap1 = st.Snapshot()
	}
	res.m = drivers[0].m
	for _, d := range drivers[1:] {
		res.m.merge(d.m)
	}
	if err := st.Close(); err != nil {
		return nil, fmt.Errorf("%s: closing the stack: %w", def.name, err)
	}
	return res, nil
}

// eachClient runs fn once per client: inline for one client, so that no
// goroutine hand-off sits inside a timed section, concurrently otherwise.
func eachClient(n int, fn func(c int)) {
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}
