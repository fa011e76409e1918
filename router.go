package hcompress

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"

	"hcompress/internal/telemetry"
)

// Router owns N independent Shards — N complete pipelines with their own
// locks, worker pools, stores, HCDP engines, and virtual clocks — and
// routes every key to exactly one of them with rendezvous
// (highest-random-weight) hashing. The mapping is a pure function of the
// key and the shard count: stable across restarts, no directory, no
// rebalancing state. Single-key operations touch one shard; batch
// operations split by shard and fan out; aggregate views (Status,
// Health, Stats, Snapshot, Audits, FaultEvents) compose per-shard
// snapshots one shard at a time.
//
// Lock ordering: the router itself holds no lock, ever. Each aggregate
// view calls one shard's snapshot method at a time, and every such
// method acquires and releases only that shard's own locks — so no code
// path in the package ever holds two shards' locks at once, and
// cross-shard deadlock is impossible by construction (see DESIGN.md
// §13 for the rule this encodes).
type Router struct {
	shards []*Shard
	salts  []uint64 // per-shard rendezvous salts, fixed at construction
}

// NewRouter builds a router over n identical shards, each configured
// from cfg. Tier capacities are per-shard: n shards of a 1 GiB hierarchy
// hold n GiB in aggregate. With n > 1, every shard's telemetry series
// gains a shard="<i>" label, the shards share one trace sink (records
// from different shards interleave line-atomically), MetricsAddr is
// rejected (serve the merged exposition via WriteMetrics or the
// internal/service front-end instead), and SaveSeedOnClose persists
// shard 0's evolved model only. With n == 1 the router is byte-for-byte
// the pre-sharding client: no shard label, no behavioural difference.
func NewRouter(cfg Config, n int) (*Router, error) {
	if n < 1 {
		return nil, fmt.Errorf("hcompress: router needs at least 1 shard, got %d", n)
	}
	if n > 1 && cfg.MetricsAddr != "" {
		return nil, errors.New("hcompress: MetricsAddr is single-shard only; use Router.WriteMetrics or the service front-end")
	}
	r := &Router{
		shards: make([]*Shard, 0, n),
		salts:  make([]uint64, n),
	}
	if n > 1 && cfg.TraceWriter != nil {
		cfg.traceSink = telemetry.NewSink(cfg.TraceWriter)
	}
	for i := 0; i < n; i++ {
		scfg := cfg
		if n > 1 {
			scfg.shardLabel = strconv.Itoa(i)
			if i > 0 {
				scfg.SaveSeedOnClose = false
			}
		}
		s, err := newShard(scfg)
		if err != nil {
			for _, prev := range r.shards {
				_ = prev.Close()
			}
			return nil, fmt.Errorf("hcompress: shard %d: %w", i, err)
		}
		r.shards = append(r.shards, s)
		r.salts[i] = rendezvousSalt(i)
	}
	return r, nil
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
// owns keyOf(item), run each shard's sub-batch concurrently through run,
// and reassemble the reports in input order; the error joins every
// shard's error. A single-shard router hands the batch straight through.
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
	for i, it := range items {
		s := r.ShardFor(keyOf(it))
		byShard[s] = append(byShard[s], it)
		idx[s] = append(idx[s], i)
	}
	reps := make([]*Report, len(items))
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for s := range r.shards {
		if len(byShard[s]) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sreps, err := run(r.shards[s], ctx, byShard[s])
			errs[s] = err
			for j, rep := range sreps {
				reps[idx[s][j]] = rep
			}
		}(s)
	}
	wg.Wait()
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

// Stats sums per-shard counters; ModelAccuracy averages the shards' CCP
// accuracies and VirtualSeconds reports the furthest shard clock (each
// shard keeps its own virtual timeline).
func (r *Router) Stats() Stats {
	var agg Stats
	for _, s := range r.shards {
		st := s.Stats()
		agg.ModelAccuracy += st.ModelAccuracy
		agg.FeedbackQueued += st.FeedbackQueued
		agg.FeedbackAbsorbed += st.FeedbackAbsorbed
		agg.MemoHits += st.MemoHits
		agg.MemoMisses += st.MemoMisses
		agg.PlanCacheHits += st.PlanCacheHits
		agg.PlanCacheMisses += st.PlanCacheMisses
		agg.Tasks += st.Tasks
		if st.VirtualSeconds > agg.VirtualSeconds {
			agg.VirtualSeconds = st.VirtualSeconds
		}
	}
	if len(r.shards) > 0 {
		agg.ModelAccuracy /= float64(len(r.shards))
	}
	return agg
}

// Snapshot merges every shard's metric snapshot into one map set. With
// more than one shard every series carries its shard label, so the union
// is collision-free.
func (r *Router) Snapshot() MetricsSnapshot {
	agg := MetricsSnapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramStat),
	}
	for _, s := range r.shards {
		snap := s.Snapshot()
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
// shard's registry (families unified, series distinguished by the shard
// label).
func (r *Router) WriteMetrics(w io.Writer) error {
	regs := make([]*telemetry.Registry, len(r.shards))
	for i, s := range r.shards {
		regs[i] = s.tel
	}
	return telemetry.MergePrometheus(w, regs...)
}

// Audits drains every shard's decision-audit ring, shard 0 first.
func (r *Router) Audits() []AuditRecord {
	var out []AuditRecord
	for _, s := range r.shards {
		out = append(out, s.Audits()...)
	}
	return out
}

// SlowOps drains every shard's slow-op ring, shard 0 first. Empty unless
// Config.SlowOpThreshold or Config.SlowOpSampleEvery is set.
func (r *Router) SlowOps() []SlowOpRecord {
	var out []SlowOpRecord
	for _, s := range r.shards {
		out = append(out, s.SlowOps()...)
	}
	return out
}

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
		agg.PrefetchIssued += st.PrefetchIssued
		agg.PrefetchUsed += st.PrefetchUsed
		agg.PrefetchFailed += st.PrefetchFailed
		agg.PrefetchCancelled += st.PrefetchCancelled
	}
	return agg
}

// FaultEvents drains every shard's health-transition ring, shard 0 first.
func (r *Router) FaultEvents() []FaultEvent {
	var out []FaultEvent
	for _, s := range r.shards {
		out = append(out, s.FaultEvents()...)
	}
	return out
}

// Close closes every shard (draining each shard's in-flight operations
// under that shard's own lifecycle lock) and joins any errors. Idempotent.
func (r *Router) Close() error {
	errs := make([]error, len(r.shards))
	for i, s := range r.shards {
		errs[i] = s.Close()
	}
	return errors.Join(errs...)
}
