package hcompress

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"strconv"
	"sync"
	"time"

	"hcompress/internal/bufpool"
	"hcompress/internal/fanout"
	"hcompress/internal/predictor"
	"hcompress/internal/seed"
	"hcompress/internal/telemetry"
)

// Router owns N Shards — N tier hierarchies, each with its own locks,
// store, HCDP engine, read cache, and virtual clock — and, once per
// process, what the shards share: the Compression Cost Predictor that
// every shard plans with and feeds, the worker pool (one
// Interactive-before-Batch queue), one demoter and one readahead worker
// that walk the shards, the trace sink, the MetricsAddr listener, and
// the arena and pool series. It routes every key to exactly one shard
// with rendezvous (highest-random-weight) hashing: a pure function of
// the key and the shard count, stable across restarts, with no
// directory and no rebalancing state. Batch operations split by shard
// and fan out; aggregate views compose per-shard snapshots.
//
// Lock ordering: the router holds no lock across a shard call. Each
// aggregate view calls one shard at a time, and the background runner
// holds one shard's read lock per demotion slice or prefetch fill — so
// no code path ever holds two shards' locks at once, and cross-shard
// deadlock is impossible by construction (DESIGN.md §13). The shared
// CCP takes only its own lock, inside any shard's.
type Router struct {
	shards []*Shard
	salts  []uint64       // per-shard rendezvous salts, fixed at construction
	pred   *predictor.CCP // the process-wide cost predictor

	closers   []func() error // everything NewRouter acquired; Close releases it newest first
	closeOnce sync.Once
	tel       *telemetry.Registry // process-wide series when n > 1, else nil
	mu        sync.RWMutex        // guards metricsLn against Close
	metricsLn net.Listener
}

// NewRouter builds a router over n identical shards, each configured
// from cfg. Tier capacities are per-shard: n shards of a 1 GiB hierarchy
// hold n GiB in aggregate. The seed is loaded once and every shard plans
// with, and feeds, one cost predictor, so SaveSeedOnClose persists what
// all shards learned. With n > 1, every shard's telemetry series gains a
// shard="<i>" label while the process-wide ones stay unlabelled in a
// router registry. With n == 1 the router is byte-for-byte the
// pre-sharding client: no shard label, no behavioural difference.
func NewRouter(cfg Config, n int) (_ *Router, err error) {
	if n < 1 {
		return nil, fmt.Errorf("hcompress: router needs at least 1 shard, got %d", n)
	}
	h, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	var sd *seed.Seed
	if cfg.SeedPath != "" {
		if sd, err = seed.Load(cfg.SeedPath); err != nil {
			return nil, err
		}
	} else {
		sd = seed.Builtin(h)
	}
	if cfg.FeedbackInterval > 0 {
		sd.FeedbackInterval = cfg.FeedbackInterval
	}
	r := &Router{
		shards: make([]*Shard, 0, n),
		salts:  make([]uint64, n),
		pred:   predictor.New(sd),
	}
	defer func() {
		if err != nil {
			_ = r.Close() // a failed construction releases what it acquired
		}
	}()
	pool := fanout.NewPool(cfg.Parallelism)
	r.closers = append(r.closers, func() error { pool.Close(); return nil })
	// Closers run newest first, so this one runs once every shard has
	// closed and no feedback can still arrive: the one flush, and the
	// one save of what every shard taught the predictor. A failed
	// construction leaves the seed file alone.
	built := false
	r.closers = append(r.closers, func() error {
		r.pred.Flush()
		if !built || !cfg.SaveSeedOnClose || cfg.SeedPath == "" {
			return nil
		}
		maps.Copy(sd.Costs, r.pred.Costs())
		return sd.Save(cfg.SeedPath)
	})
	sink := telemetry.NewSink(cfg.TraceWriter)
	for i := 0; i < n; i++ {
		label := ""
		if n > 1 {
			label = strconv.Itoa(i)
		}
		s, err := newShard(cfg, h, label, sd, r.pred, pool, sink)
		if err != nil {
			return nil, fmt.Errorf("hcompress: shard %d: %w", i, err)
		}
		r.closers = append(r.closers, s.Close)
		r.shards = append(r.shards, s)
		r.salts[i] = rendezvousSalt(i)
	}
	// The process-wide series live in the one shard's registry, or with
	// several shards in the router's own; the arena mirrors into the
	// registry set last, so it is set once per router.
	if proc := r.shards[0].tel; proc != nil {
		if n > 1 {
			r.tel = telemetry.New()
			proc = r.tel
		}
		r.pred.SetTelemetry(proc)
		pool.SetTelemetry(proc)
		bufpool.SetTelemetry(proc)
		id := expvarRegister(r.Snapshot)
		r.closers = append(r.closers, func() error { expvarUnregister(id); return nil })
		if cfg.MetricsAddr != "" {
			if err := r.startMetricsServer(cfg.MetricsAddr, proc); err != nil {
				return nil, err
			}
		}
	}
	if cfg.DemotionInterval > 0 {
		r.background(func(ctx context.Context) { r.demoteLoop(ctx, cfg.DemotionInterval, cfg.DemotionSliceSubTasks) })
	}
	if r.shards[0].cache != nil && !cfg.DisablePrefetch {
		// Every shard's cache wakes the one worker; the capacity-1
		// channel coalesces bursts.
		kick := make(chan struct{}, 1)
		for _, s := range r.shards {
			s.cache.OnRun(func() {
				select {
				case kick <- struct{}{}:
				default:
				}
			})
		}
		r.background(func(ctx context.Context) { r.prefetchLoop(ctx, kick) })
	}
	built = true
	return r, nil
}

// background runs loop on its own goroutine until the router closes: the
// closer it pushes cancels loop's context and waits for it to return.
// Started last, the loops are the newest closers and stop first, before
// the shards they walk and the pool they fan through.
func (r *Router) background(loop func(ctx context.Context)) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		loop(ctx)
	}()
	r.closers = append(r.closers, func() error { cancel(); <-done; return nil })
}

// demoteLoop is the background demoter: every interval it gives each
// shard in turn one demotion pass, which drains any tier filled past its
// high watermark down to the low watermark in bounded slices — the
// paper's asynchronous buffer flush, without stalling the data path.
func (r *Router) demoteLoop(ctx context.Context, interval time.Duration, sliceN int) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			for _, s := range r.shards {
				s.demoteOnce(ctx, sliceN)
			}
		}
	}
}

// prefetchLoop is the background readahead worker: woken when a read on
// any shard extends an ascending run, it decompresses the keys each
// shard's cache predicts into that cache ahead of demand, at most
// prefetchPerPass per shard. Its decompression fans out at Batch class,
// so Interactive operations of every shard claim pool workers first.
func (r *Router) prefetchLoop(ctx context.Context, kick <-chan struct{}) {
	ctx = fanout.WithClass(ctx, fanout.Batch)
	for {
		select {
		case <-ctx.Done():
			return
		case <-kick:
		}
		for _, s := range r.shards {
			for _, key := range s.cache.Candidates(prefetchPerPass, prefetchDepth) {
				if ctx.Err() != nil {
					return
				}
				s.prefetchOne(ctx, key)
			}
		}
	}
}

// Shards reports the shard count.
func (r *Router) Shards() int { return len(r.shards) }

// Shard exposes shard i for per-shard views and tests.
func (r *Router) Shard(i int) *Shard { return r.shards[i] }

// rendezvousSalt derives shard i's fixed hash salt from its index alone,
// so the key→shard mapping is a pure function of (key, shard count) —
// identical across processes and restarts.
func rendezvousSalt(i int) uint64 {
	return mix64(0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9)
}

// fnv1a64 is the 64-bit FNV-1a string hash (stable, allocation-free).
func fnv1a64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection that
// turns the xor of a key hash and a shard salt into an independent
// uniform score per (key, shard) pair — the "random weight" in
// highest-random-weight hashing.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ShardFor reports which shard owns key: the shard whose (salt, key)
// score is highest. Every caller — today's router, a restarted one, a
// remote one with the same shard count — computes the same owner.
func (r *Router) ShardFor(key string) int {
	if len(r.shards) == 1 {
		return 0
	}
	hk := fnv1a64(key)
	best, bestScore := 0, uint64(0)
	for i, salt := range r.salts {
		if s := mix64(hk ^ salt); s > bestScore || i == 0 {
			best, bestScore = i, s
		}
	}
	return best
}

// Compress routes the task to its key's shard and runs the write
// pipeline there.
func (r *Router) Compress(t Task) (*Report, error) {
	return r.shards[r.ShardFor(t.Key)].Compress(t)
}

// CompressContext is Compress under a context.
func (r *Router) CompressContext(ctx context.Context, t Task) (*Report, error) {
	return r.shards[r.ShardFor(t.Key)].CompressContext(ctx, t)
}

// Decompress routes the read to the key's shard.
func (r *Router) Decompress(key string) (*Report, error) {
	return r.shards[r.ShardFor(key)].Decompress(key)
}

// DecompressContext is Decompress under a context.
func (r *Router) DecompressContext(ctx context.Context, key string) (*Report, error) {
	return r.shards[r.ShardFor(key)].DecompressContext(ctx, key)
}

// Delete removes a stored task from its shard.
func (r *Router) Delete(key string) error {
	return r.shards[r.ShardFor(key)].Delete(key)
}

// CompressBatch splits the batch by owning shard, runs each shard's
// sub-batch concurrently through that shard's batch pipeline, and
// reassembles reports in input order. Tasks fail independently exactly
// as in Shard.CompressBatch; the error joins every shard's joined error.
func (r *Router) CompressBatch(tasks []Task) ([]*Report, error) {
	return r.CompressBatchContext(context.Background(), tasks)
}

// CompressBatchContext is CompressBatch under a context.
func (r *Router) CompressBatchContext(ctx context.Context, tasks []Task) ([]*Report, error) {
	return scatter(ctx, r, tasks, func(t Task) string { return t.Key }, (*Shard).CompressBatchContext)
}

// DecompressBatch splits the keys by owning shard, reads each sub-batch
// concurrently, and reassembles reports in input order.
func (r *Router) DecompressBatch(keys []string) ([]*Report, error) {
	return r.DecompressBatchContext(context.Background(), keys)
}

// DecompressBatchContext is DecompressBatch under a context.
func (r *Router) DecompressBatchContext(ctx context.Context, keys []string) ([]*Report, error) {
	return scatter(ctx, r, keys, func(k string) string { return k }, (*Shard).DecompressBatchContext)
}

// scatter is the body of both batch calls: split items by the shard that
// owns keyOf(item), run the shards' sub-batches as the items of one job
// on the pool every shard shares, at ctx's class (the caller helps, and
// pool workers already carry grown stacks), and reassemble the reports
// in input order; the error joins every shard's error. A single-shard
// router hands the batch straight through.
func scatter[T any](ctx context.Context, r *Router, items []T, keyOf func(T) string,
	run func(*Shard, context.Context, []T) ([]*Report, error)) ([]*Report, error) {
	if len(items) == 0 {
		return nil, nil
	}
	if len(r.shards) == 1 {
		return run(r.shards[0], ctx, items)
	}
	byShard := make([][]T, len(r.shards))
	idx := make([][]int, len(r.shards))
	var live []int // shards that own at least one item
	for i, it := range items {
		s := r.ShardFor(keyOf(it))
		if len(idx[s]) == 0 {
			live = append(live, s)
		}
		byShard[s] = append(byShard[s], it)
		idx[s] = append(idx[s], i)
	}
	reps := make([]*Report, len(items))
	errs := make([]error, len(r.shards))
	// Each item reports into errs, so RunClass's first error is one of them.
	_ = r.shards[0].pool.RunClass(fanout.ClassOf(ctx), len(live), func(_ *bufpool.Scratch, k int) error {
		s := live[k]
		sreps, err := run(r.shards[s], ctx, byShard[s])
		errs[s] = err
		for j, rep := range sreps {
			reps[idx[s][j]] = rep
		}
		return nil
	})
	return reps, errors.Join(errs...)
}

// SetPriorities broadcasts a new cost weighting to every shard.
func (r *Router) SetPriorities(p Priorities) {
	for _, s := range r.shards {
		s.SetPriorities(p)
	}
}

// Advance moves every shard's virtual clock forward by dv seconds.
func (r *Router) Advance(dv float64) {
	for _, s := range r.shards {
		s.Advance(dv)
	}
}

// healthRank orders health states for worst-of aggregation.
func healthRank(state string) int {
	switch state {
	case "offline":
		return 2
	case "degraded":
		return 1
	default:
		return 0
	}
}

// Status composes the per-shard tier views into one aggregate: per tier
// (tiers correspond by index — every shard runs the same hierarchy),
// capacities, occupancy, and queue lengths sum; health is the worst
// state any shard reports; the error streak is the largest. Each shard
// is snapshotted under its own locks, one shard at a time — the
// aggregate is per-shard-consistent, not a global atomic cut, the same
// contract Status always had against concurrent writers.
func (r *Router) Status() []TierStatusReport {
	var agg []TierStatusReport
	for _, s := range r.shards {
		for i, row := range s.Status() {
			if i >= len(agg) {
				agg = append(agg, row)
				continue
			}
			agg[i].CapacityBytes += row.CapacityBytes
			agg[i].UsedBytes += row.UsedBytes
			agg[i].RemainingBytes += row.RemainingBytes
			agg[i].QueueLength += row.QueueLength
			if healthRank(row.Health) > healthRank(agg[i].Health) {
				agg[i].Health = row.Health
			}
			if row.ConsecutiveErrors > agg[i].ConsecutiveErrors {
				agg[i].ConsecutiveErrors = row.ConsecutiveErrors
			}
			if row.LastTransitionVSec > agg[i].LastTransitionVSec {
				agg[i].LastTransitionVSec = row.LastTransitionVSec
			}
		}
	}
	return agg
}

// ShardStatus is shard i's own (un-aggregated) tier view.
func (r *Router) ShardStatus(i int) []TierStatusReport {
	return r.shards[i].Status()
}

// Health composes per-shard health into worst-of-tier rows: a tier is as
// unhealthy as its sickest shard, and NextProbeVSec reports the soonest
// pending recovery probe. Like Status it never holds two shards' locks.
func (r *Router) Health() []TierHealthReport {
	var agg []TierHealthReport
	for _, s := range r.shards {
		for i, row := range s.Health() {
			if i >= len(agg) {
				agg = append(agg, row)
				continue
			}
			if healthRank(row.State) > healthRank(agg[i].State) {
				agg[i].State = row.State
			}
			if row.ConsecutiveErrors > agg[i].ConsecutiveErrors {
				agg[i].ConsecutiveErrors = row.ConsecutiveErrors
			}
			if row.LastTransitionVSec > agg[i].LastTransitionVSec {
				agg[i].LastTransitionVSec = row.LastTransitionVSec
			}
			if row.NextProbeVSec > 0 && (agg[i].NextProbeVSec == 0 || row.NextProbeVSec < agg[i].NextProbeVSec) {
				agg[i].NextProbeVSec = row.NextProbeVSec
			}
		}
	}
	return agg
}

// Stats sums the per-shard counters and reads the one CCP's accuracy
// and feedback counts once; VirtualSeconds reports the furthest shard
// clock (each shard keeps its own virtual timeline).
func (r *Router) Stats() Stats {
	var agg Stats
	for _, s := range r.shards {
		st := s.Stats()
		agg.MemoHits += st.MemoHits
		agg.MemoMisses += st.MemoMisses
		agg.PlanCacheHits += st.PlanCacheHits
		agg.PlanCacheMisses += st.PlanCacheMisses
		agg.Tasks += st.Tasks
		if st.VirtualSeconds > agg.VirtualSeconds {
			agg.VirtualSeconds = st.VirtualSeconds
		}
	}
	agg.ModelAccuracy = r.pred.R2()
	agg.FeedbackQueued, agg.FeedbackAbsorbed = r.pred.Stats()
	return agg
}

// registries lists every shard's registry, then the router's own.
func (r *Router) registries() []*telemetry.Registry {
	regs := make([]*telemetry.Registry, 0, len(r.shards)+1)
	for _, s := range r.shards {
		regs = append(regs, s.tel)
	}
	return append(regs, r.tel)
}

// Snapshot merges every shard's metric snapshot and the process-wide
// series into one map set. With more than one shard every per-shard
// series carries its shard label and the process-wide ones carry none,
// so the union is collision-free.
func (r *Router) Snapshot() MetricsSnapshot {
	agg := MetricsSnapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramStat),
	}
	for _, reg := range r.registries() {
		snap := reg.Snapshot()
		for k, v := range snap.Counters {
			agg.Counters[k] += v
		}
		for k, v := range snap.Gauges {
			agg.Gauges[k] = v
		}
		for k, v := range snap.Histograms {
			agg.Histograms[k] = v
		}
	}
	return agg
}

// WriteMetrics renders one merged Prometheus exposition over every
// shard's registry and the process-wide series (families unified,
// series distinguished by the shard label) — the bytes MetricsAddr
// serves on /metrics.
func (r *Router) WriteMetrics(w io.Writer) error {
	return telemetry.MergePrometheus(w, r.registries()...)
}

// MetricsAddr reports the bound address of the metrics listener (useful
// with Config.MetricsAddr ":0"), or "" when none is serving.
func (r *Router) MetricsAddr() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.metricsLn == nil {
		return ""
	}
	return r.metricsLn.Addr().String()
}

// drainAll concatenates one ring drain per shard, shard 0 first.
func drainAll[T any](r *Router, drain func(*Shard) []T) []T {
	var out []T
	for _, s := range r.shards {
		out = append(out, drain(s)...)
	}
	return out
}

// Audits drains every shard's decision-audit ring, shard 0 first.
func (r *Router) Audits() []AuditRecord { return drainAll(r, (*Shard).Audits) }

// SlowOps drains every shard's slow-op ring, shard 0 first. Empty unless
// Config.SlowOpThreshold or Config.SlowOpSampleEvery is set.
func (r *Router) SlowOps() []SlowOpRecord { return drainAll(r, (*Shard).SlowOps) }

// CacheStats sums every shard's read-cache counters into one aggregate
// view. Capacity and occupancy add (each shard owns an independent
// cache); all-zero when ReadCacheFraction is 0. Like every aggregate it
// snapshots one shard at a time.
func (r *Router) CacheStats() CacheStats {
	var agg CacheStats
	for _, s := range r.shards {
		st := s.CacheStats()
		agg.Entries += st.Entries
		agg.Bytes += st.Bytes
		agg.Capacity += st.Capacity
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.Admissions += st.Admissions
		agg.Rejects += st.Rejects
		agg.Evictions += st.Evictions
		agg.Invalidations += st.Invalidations
		agg.Refreshes += st.Refreshes
		agg.PrefetchIssued += st.PrefetchIssued
		agg.PrefetchUsed += st.PrefetchUsed
		agg.PrefetchFailed += st.PrefetchFailed
		agg.PrefetchCancelled += st.PrefetchCancelled
	}
	return agg
}

// FaultEvents drains every shard's health-transition ring, shard 0 first.
func (r *Router) FaultEvents() []FaultEvent { return drainAll(r, (*Shard).FaultEvents) }

// Close stops the background runner and the metrics listener, closes
// every shard (each draining its in-flight operations under its own
// lifecycle lock), flushes the cost predictor's pending feedback and,
// with SaveSeedOnClose, writes its table back to the seed, then closes
// the worker pool, and joins any errors.
// Idempotent; a shard closed on its own beforehand is skipped.
func (r *Router) Close() error {
	var errs []error
	r.closeOnce.Do(func() {
		r.mu.Lock()
		r.metricsLn = nil
		r.mu.Unlock()
		for i := len(r.closers) - 1; i >= 0; i-- {
			errs = append(errs, r.closers[i]())
		}
	})
	return errors.Join(errs...)
}
