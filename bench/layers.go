package main

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"hcompress"
	"hcompress/bench/trace"
)

// probeEnv is what a layer probe may use: the workload's own
// configuration and buffers, a scratch directory under .bench_build/,
// and the place its metrics and read-back verdicts go.
type probeEnv struct {
	def  workloadDef
	o    options
	corp *corpus
	dur  time.Duration

	out               []metric
	vals              map[string]float64
	attempted, failed int64
	findings          []string
}

func (e *probeEnv) add(name string, v float64, unit string, n int) {
	if e.vals == nil {
		e.vals = make(map[string]float64)
	}
	e.vals[name] = v
	e.out = append(e.out, metric{name, v, unit, n})
}

// iters scales a probe's fixed iteration count (the smoke test divides).
func (e *probeEnv) iters(n int) int { return max(n/e.o.div, 4) }

// sample is the i-th probe buffer: one buffer of each data class, of the
// workload's first task size.
func (e *probeEnv) sample(i int) []byte { return e.corp.bufs[i%len(dataClasses)] }

// verify is the probes' oracle: a probe that reads bytes back compares
// them with what it wrote, and a mismatch fails the run.
func (e *probeEnv) verify(got, want []byte, what string) {
	e.attempted++
	if !bytes.Equal(got, want) {
		e.failed++
		fmt.Fprintf(os.Stderr, "FAILED: probe %s read back wrong bytes\n", what)
	}
}

// must reports a probe that could not run at all as a failure.
func (e *probeEnv) must(err error, what string) bool {
	if err == nil {
		return true
	}
	e.attempted++
	e.failed++
	fmt.Fprintf(os.Stderr, "FAILED: probe %s: %v\n", what, err)
	return false
}

// scratch creates an empty directory for a probe under .bench_build/.
func (e *probeEnv) scratch(name string) (dir string, cleanup func()) {
	dir = filepath.Join(e.o.buildDir(), fmt.Sprintf("probe-%s-%d", name, os.Getpid()))
	_ = os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		e.must(err, name)
	}
	return dir, func() { _ = os.RemoveAll(dir) }
}

// perOp times iters calls of fn in five batches and returns the median
// batch's nanoseconds per call.
func perOp(iters int, fn func(i int)) float64 {
	const batches = 5
	per := max(iters/batches, 1)
	xs := make([]float64, batches)
	for b := range xs {
		start := time.Now()
		for i := 0; i < per; i++ {
			fn(b*per + i)
		}
		xs[b] = float64(time.Since(start)) / float64(per)
	}
	return median(xs)
}

// stageSum is the growth of hc_stage_seconds{stage=<stage>}, summed over
// every shard, between two snapshots.
func stageSum(before, after hcompress.MetricsSnapshot, stage string) float64 {
	var sum float64
	for name, h := range after.Histograms {
		if strings.HasPrefix(name, "hc_stage_seconds{") && strings.Contains(name, `stage="`+stage+`"`) {
			sum += h.Sum - before.Histograms[name].Sum
		}
	}
	return sum
}

// perLayer assembles every per-layer metric of a traced run from three
// outside-in instruments: counts read from the program's exported views
// around each rep, the op spans of the traced rep, and direct timed
// probes of each layer's exported functions.
func perLayer(e *probeEnv, reps []*repResult, traced *repResult, tr *trace.Recorder) []metric {
	probeAnalyzer(e)
	probeCore(e)
	probePredictor(e)
	probeMonitor(e)
	probeFanout(e)
	probeCodec(e)
	probeReadcache(e)
	probeStore(e)
	probeBackend(e)
	probeDurable(e)
	probeBufpool(e)
	probeRouter(e)
	probeService(e)

	items := func(r *repResult) float64 { return float64(r.m.writes + r.m.reads) }
	callSec := func(r *repResult) float64 { return float64(r.m.callNs) / 1e9 }
	nItems := int(items(traced))

	// Counts from exported views and Report fields, medians over the
	// untraced reps: reading them costs the timed section nothing.
	count := func(name, unit string, f func(*repResult) float64) {
		e.add(name, medianOf(reps, f), unit, len(reps))
	}
	count("core.plan_cache_hit_frac", "frac", func(r *repResult) float64 {
		h := float64(r.after.stats.PlanCacheHits - r.before.stats.PlanCacheHits)
		return ratio(h, h+float64(r.after.stats.PlanCacheMisses-r.before.stats.PlanCacheMisses))
	})
	count("core.memo_hit_frac", "frac", func(r *repResult) float64 {
		h := float64(r.after.stats.MemoHits - r.before.stats.MemoHits)
		return ratio(h, h+float64(r.after.stats.MemoMisses-r.before.stats.MemoMisses))
	})
	count("predictor.relerr_p50", "frac", func(r *repResult) float64 { return median(r.m.relErr) })
	count("manager.subtasks_op", "count", func(r *repResult) float64 {
		return ratio(float64(r.m.subTasks), float64(r.m.writes))
	})
	count("manager.degraded_frac", "frac", func(r *repResult) float64 {
		return ratio(float64(r.m.degraded), float64(r.m.writes))
	})
	count("codec.comp_us_op", "us", func(r *repResult) float64 {
		return ratio(r.m.codecWriteSec*1e6, float64(r.m.writes))
	})
	count("codec.decomp_us_op", "us", func(r *repResult) float64 {
		return ratio(r.m.codecReadSec*1e6, float64(r.m.reads-r.m.hits))
	})
	count("codec.share", "frac", func(r *repResult) float64 {
		return ratio(r.m.codecWriteSec+r.m.codecReadSec, callSec(r))
	})
	count("readcache.hit_frac", "frac", func(r *repResult) float64 {
		h := float64(r.after.cache.Hits - r.before.cache.Hits)
		return ratio(h, h+float64(r.after.cache.Misses-r.before.cache.Misses))
	})
	count("readcache.evict_per_admit", "frac", func(r *repResult) float64 {
		return ratio(float64(r.after.cache.Evictions-r.before.cache.Evictions),
			float64(r.after.cache.Admissions-r.before.cache.Admissions))
	})
	count("readcache.prefetch_used_frac", "frac", func(r *repResult) float64 {
		return ratio(float64(r.after.cache.PrefetchUsed-r.before.cache.PrefetchUsed),
			float64(r.after.cache.PrefetchIssued-r.before.cache.PrefetchIssued))
	})
	count("store.tier0_byte_frac", "frac", func(r *repResult) float64 {
		var used float64
		for _, t := range r.status {
			used += float64(t.UsedBytes)
		}
		return ratio(float64(r.status[0].UsedBytes), used)
	})
	count("bufpool.hit_frac", "frac", func(r *repResult) float64 {
		h := float64(r.after.bpHit - r.before.bpHit)
		return ratio(h, h+float64(r.after.bpMiss-r.before.bpMiss))
	})
	count("shard.allocs_op", "count", func(r *repResult) float64 {
		return ratio(float64(r.after.mallocs-r.before.mallocs), items(r))
	})
	count("shard.alloc_kb_op", "KB", func(r *repResult) float64 {
		return ratio(float64(r.after.allocB-r.before.allocB)/1024, items(r))
	})
	if e.def.shards > 1 {
		count("router.shard_imbalance", "ratio", func(r *repResult) float64 {
			var sum int64
			for _, n := range r.m.shardKeys {
				sum += n
			}
			return ratio(float64(slices.Max(r.m.shardKeys)), float64(sum)/float64(len(r.m.shardKeys)))
		})
	}
	// Tails could not hold any bound in three ten-seed sets, so they are
	// reported here, unbounded.
	count("write_p95_ms", "ms", func(r *repResult) float64 { return percentileNs(r.m.writeLat, 95) })
	count("read_p95_ms", "ms", func(r *repResult) float64 { return percentileNs(r.m.readLat, 95) })

	// The program's own attribution, from the traced rep's telemetry.
	var wallStages float64
	for _, stage := range []string{"queue", "analyze", "plan", "codec", "io", "retry"} {
		sum := stageSum(traced.snap0, traced.snap1, stage)
		e.add("stage."+stage+"_us_op", ratio(sum*1e6, items(traced)), "us", nItems)
		// io and retry are seconds on the program's virtual clock; only
		// the other four are wall time and can close against op wall.
		if stage != "io" && stage != "retry" {
			wallStages += sum
		}
	}
	closure := ratio(wallStages, callSec(traced))
	e.add("trace.stage_closure_frac", closure, "frac", nItems)
	e.add("trace.overhead_frac", 1-ratio(traced.opsPerSec(), medianOf(reps, (*repResult).opsPerSec)), "frac", nItems)

	// Closure from outside: what the layer probes and the reports say an
	// op should cost, against what the calls took.
	unattributed := medianOf(reps, func(r *repResult) float64 { return 1 - ratio(e.modeledSec(r), callSec(r)) })
	e.add("trace.unattributed_frac", unattributed, "frac", len(reps))
	if unattributed > 0.05 || unattributed < -0.05 {
		e.findings = append(e.findings, fmt.Sprintf(
			"trace.unattributed_frac %.3f: the per-layer costs do not add up to the op wall time within 5 %%", unattributed))
	}
	if closure < 0.95 {
		e.findings = append(e.findings, fmt.Sprintf(
			"trace.stage_closure_frac %.3f: hc_stage_seconds explains less than 95 %% of op wall time", closure))
	}
	self := tr.SelfTimes()
	for _, layer := range slices.Sorted(maps.Keys(self)) {
		lt := self[layer]
		fmt.Printf("# trace layer=%-7s spans=%-8d total_ms=%-10.1f self_ms=%.1f\n",
			layer, lt.Spans, float64(lt.Total)/1e6, float64(lt.Self)/1e6)
	}
	slices.SortStableFunc(e.out, func(a, b metric) int { return layerRank(a.Name) - layerRank(b.Name) })
	return e.out
}

// layerOrder is the order layers are printed in: the order a request
// crosses them, then the tails and the trace's own checks.
var layerOrder = []string{
	"analyzer", "core", "predictor", "monitor", "manager", "stage", "fanout", "codec", "readcache",
	"store", "backend", "durable", "bufpool", "shard", "router", "service", "write_p95_ms", "read_p95_ms", "trace",
}

func layerRank(name string) int {
	layer, _, _ := strings.Cut(name, ".")
	return slices.Index(layerOrder, layer)
}

// modeledSec prices one rep's operations with the layer probes' per-call
// costs plus the codec time the reports carry.
func (e *probeEnv) modeledSec(r *repResult) float64 {
	v := e.vals
	m := r.m
	subs := ratio(float64(m.subTasks), float64(m.writes)) // sub-tasks per task
	perWrite := v["analyzer.us_op"]*1e3 + v["core.plan_cached_ns"] + v["monitor.status_ns"] + v["fanout.run1_ns"] +
		subs*(v["store.put_us"]*1e3+v["bufpool.get_put_ns"]+v["predictor.feedback_ns"])
	perMiss := v["fanout.run1_ns"] + subs*(v["store.get_us"]*1e3+v["bufpool.get_put_ns"])
	if r.after.cache.Capacity > 0 {
		perMiss += v["readcache.commit_us"] * 1e3
	}
	perDelete := subs * v["store.delete_us"] * 1e3
	ns := float64(m.writes)*perWrite + float64(m.reads-m.hits)*perMiss +
		float64(m.hits)*v["readcache.get_hit_ns"] + float64(m.deletes)*perDelete
	return ns/1e9 + m.codecWriteSec + m.codecReadSec
}
