package hcompress

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hcompress/internal/analyzer"
	"hcompress/internal/bufpool"
	"hcompress/internal/codec"
	"hcompress/internal/core"
	"hcompress/internal/fanout"
	"hcompress/internal/fault"
	"hcompress/internal/manager"
	"hcompress/internal/monitor"
	"hcompress/internal/predictor"
	"hcompress/internal/readcache"
	"hcompress/internal/seed"
	"hcompress/internal/stats"
	"hcompress/internal/store"
	"hcompress/internal/telemetry"
	"hcompress/internal/tier"
)

// ErrClosed is returned by operations on a closed Client, Shard, or
// Router.
var ErrClosed = errors.New("hcompress: client is closed")

// Task is one I/O request: the paper's "data buffer, operation tuple".
// The operation is selected by the method (Compress writes, Decompress
// reads).
type Task struct {
	// Key names the task; Decompress retrieves by the same key.
	Key string
	// Data is the uncompressed payload.
	Data []byte
	// DataType optionally overrides type detection ("int", "float",
	// "text", "binary") — the self-described fast path.
	DataType string
	// Distribution optionally overrides distribution detection
	// ("uniform", "normal", "exponential", "gamma").
	Distribution string
}

// SubTaskReport describes one placed sub-task. On writes it carries the
// HCDP engine's predictions next to the actuals so callers can compute
// prediction error without the audit log; the Predicted fields are zero
// on reads (a read executes the write-time schema, it does not plan).
type SubTaskReport struct {
	Tier          string
	Codec         string
	OriginalBytes int64
	StoredBytes   int64
	// PredictedBytes is the engine's alignment-rounded compressed-size
	// estimate; PredictedSeconds its modeled sub-task duration (eq. 3/4).
	PredictedBytes   int64
	PredictedSeconds float64
	// CodecSeconds and IOSeconds are the sub-task's share of the
	// operation's actual cost anatomy.
	CodecSeconds float64
	IOSeconds    float64
}

// Report summarizes one executed task.
type Report struct {
	Key            string
	OriginalBytes  int64
	StoredBytes    int64
	Ratio          float64 // original over stored (>= "1" modulo headers)
	VirtualSeconds float64 // modeled task duration (codec + tiered I/O)
	CodecSeconds   float64 // compression or decompression time
	IOSeconds      float64 // modeled storage time
	// PredictedSeconds is the engine's modeled total duration for the
	// schema it chose (writes only) — compare with VirtualSeconds for
	// the whole-task prediction error.
	PredictedSeconds float64
	DataType         string // what the Input Analyzer saw
	Distribution     string
	SubTasks         []SubTaskReport
	// Data carries the reassembled payload on Decompress. The caller
	// owns it: it is safe to read and retain indefinitely. Callers that
	// are done with it can hand the buffer back to the library's
	// internal arena with Release — entirely optional; an unreleased
	// buffer is ordinary garbage-collected memory. One nuance when the
	// read cache is enabled (Config.ReadCacheFraction > 0): a cache-hit
	// report shares its buffer with the cache, so treat Data as
	// read-only until Release; with the cache off it is exclusively
	// owned and safe to mutate, as before.
	Data []byte
	// CacheHit is true when Data was served from the read cache: the
	// operation skipped the tier walk and the codec, and the virtual-
	// time fields above are zero (a client-side DRAM hit is off the
	// modeled timeline).
	CacheHit bool
	// Degraded is non-nil when the write abandoned every compressing
	// schema and stored the task uncompressed on a fallback tier. The
	// write still succeeded; errors.Is(Degraded, ErrDegraded) is true
	// and Degraded.Cause explains why the planned path failed.
	Degraded *DegradedError

	// release, when set, returns Data through the read cache's
	// refcounting instead of a raw arena put: the buffer goes back to
	// the arena only when both the cache and every outstanding report
	// have dropped it, so Release can never double-free a buffer the
	// cache still serves (or that an invalidation already freed).
	release func()
}

// Release returns the report's Data buffer to the internal buffer arena
// so a later Decompress can reuse it without allocating. It is optional
// and idempotent; Data must not be used after Release.
func (r *Report) Release() {
	if r == nil || r.Data == nil {
		return
	}
	if r.release != nil {
		r.release()
		r.release = nil
	} else {
		bufpool.Put(r.Data)
	}
	r.Data = nil
}

// Shard is the part of an HCompress pipeline that describes one tier
// hierarchy: the IA, SM, HCDP engine and plan cache, Compression
// Manager, tiered store, read cache, and virtual clock. A Router owns N
// of them, plus the CCP, worker pool, background runner, and trace sink
// they share; a Shard starts no goroutine. No lock, store, or clock spans
// shards, which is what makes the router's aggregate views safe to
// compose shard-by-shard. It is safe for concurrent use.
//
// Concurrency model: there is no global pipeline lock. Each operation is
// staged — analyze (pure CPU, no locks), plan (engine RW-locked memo),
// execute (worker-pool codec fan-out, per-tier store locks) — and the
// only client-level state is the virtual clock (its own small lock, see
// vclock) and the lifecycle RWMutex below, whose read side is shared by
// every operation, by each demotion slice and by each prefetch fill, so
// Status/Stats never wait behind in-flight codec work. Close takes the
// write side, so it drains in-flight operations before it releases the
// store.
type Shard struct {
	mu     sync.RWMutex // lifecycle only: ops hold R, Close holds W
	closed bool

	hier  tier.Hierarchy
	pred  *predictor.CCP // the router's, shared by every shard
	mon   *monitor.SystemMonitor
	eng   *core.Engine
	mgr   *manager.Manager
	st    *store.Store
	pool  *fanout.Pool // the router's worker pool for codec fan-outs
	clock vclock       // virtual time, self-locked

	// Read accelerator (nil when ReadCacheFraction is zero): the
	// decompressed-block cache, whose readahead the router's worker fills.
	cache *readcache.Cache

	// Telemetry (all nil/zero when off — the nil-registry fast path).
	tel    *telemetry.Registry
	sink   *telemetry.Sink // the router's, shared by every shard
	cm     clientMetrics
	audit  ring[AuditRecord] // decision audits; cap 0 (holds nothing) with telemetry off
	faults ring[FaultEvent]  // health transitions; always on
	slow   *slowLog          // slow-op ring; nil unless a SlowOp* policy is set

	// Request identity: operations arriving without a propagated request
	// ID (direct library use) get one synthesized from reqSeq so every
	// span tree is still groupable by trace ID. reqPrefix carries the
	// shard label so IDs stay unique across a Router's shards; it is
	// empty on a single-shard Client, keeping its traces byte-identical
	// to the pre-sharding format.
	reqSeq    atomic.Uint64
	reqPrefix string
}

// newShard builds one shard's component stack over hierarchy h (cfg
// validated it) and the router's seed, predictor, pool and sink; label
// is "" on a single-shard router. Everything that can be rejected
// without holding a resource is rejected first (the fault script); the
// store is the one acquisition, released if a later step fails.
func newShard(cfg Config, h tier.Hierarchy, label string, sd *seed.Seed, pred *predictor.CCP,
	pool *fanout.Pool, sink *telemetry.Sink) (_ *Shard, err error) {
	var sched fault.Injector
	if cfg.FaultInjector != nil {
		if sched, err = cfg.FaultInjector.schedule(h); err != nil {
			return nil, err
		}
	}
	var reg *telemetry.Registry
	if cfg.telemetryEnabled() {
		if label != "" {
			reg = telemetry.New(telemetry.L("shard", label))
		} else {
			reg = telemetry.New()
		}
	}
	c := &Shard{
		hier: h,
		pred: pred,
		pool: pool,
		tel:  reg,
		sink: sink,
		cm:   newClientMetrics(reg),
	}

	// File-backed tiers of different shards must not share a journal
	// directory, so each shard roots its backends one level down.
	dataDir := cfg.DataDir
	if dataDir != "" && label != "" {
		dataDir = filepath.Join(dataDir, label)
	}
	c.st, err = store.Open(h, store.Options{
		KeepData:      !cfg.modeled,
		DataDir:       dataDir,
		FaultInjector: sched,
		// Every store outcome feeds the health machine; health
		// transitions come back to the client (audit ring + trace sink)
		// via the event sink installed below. The sink closes over c.mon,
		// built right after the store — backends never operate during
		// construction, so the slot is always filled by the time it fires.
		HealthSink: func(now float64, tier int, err error) { c.mon.Observe(now, tier, err) },
		Telemetry:  reg,
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = c.st.Close()
		}
	}()
	c.mon = monitor.New(c.st, cfg.MonitorIntervalSec)
	c.mon.SetTelemetry(reg)
	c.eng, err = core.New(c.pred, c.mon, core.Config{
		Weights:            cfg.Priorities.toWeights(),
		DisableCompression: cfg.DisableCompression,
		Codecs:             cfg.Codecs,
		Telemetry:          reg,
	})
	if err != nil {
		return nil, err
	}
	var demoteNotify func(keys []string)
	if cfg.ReadCacheFraction > 0 && !cfg.modeled {
		// The cache holds decompressed payloads, so it only exists when
		// the store keeps data; modeled pipelines (test-only) run without
		// it, which also keeps the trace-determinism contract untouched.
		minTouches := cfg.ReadCacheMinTouches
		if minTouches == 0 {
			minTouches = 2
		}
		capBytes := int64(cfg.ReadCacheFraction * float64(h.Tiers[0].Capacity))
		c.cache = readcache.New(capBytes, minTouches, prefetchRuns)
		c.cache.SetTelemetry(reg)
		// Demoted keys leave the cache: their cached meta (and the hot-set
		// premise that put them there) is stale once the demoter cools them.
		demoteNotify = func(keys []string) {
			for _, k := range keys {
				c.cache.Invalidate(k)
			}
		}
	}
	var oracle manager.Oracle = manager.RealOracle{}
	if cfg.modeled {
		oracle = manager.ModelOracle{Truth: sd}
	}
	c.mgr = manager.New(c.st, c.pred, manager.Options{
		Oracle:       oracle,
		Pool:         pool,
		DemoteNotify: demoteNotify,
		Telemetry:    reg,
	})
	// Tasks whose pieces all survived on durable tiers become readable
	// again here; their schemas are rebuilt from the on-media headers.
	if _, err = c.mgr.AdoptRecovered(); err != nil {
		return nil, err
	}
	c.faults.cap = 256
	c.mon.SetEventSink(c.onHealthEvent)
	if reg != nil {
		c.audit.cap = cfg.AuditLogSize
		if c.audit.cap == 0 {
			c.audit.cap = 1024
		}
	}
	if cfg.SlowOpThreshold > 0 || cfg.SlowOpSampleEvery > 0 {
		sl := &slowLog{thresh: cfg.SlowOpThreshold.Seconds(), ring: ring[SlowOpRecord]{cap: cfg.SlowOpLogSize}}
		if cfg.SlowOpSampleEvery > 0 {
			sl.every = uint64(cfg.SlowOpSampleEvery)
		}
		if sl.ring.cap == 0 {
			sl.ring.cap = 256
		}
		c.slow = sl
	}
	if label != "" {
		c.reqPrefix = "s" + label + "-"
	}
	return c, nil
}

// The demoter starts draining a tier at demotionHighWater of its capacity
// and pauses once it is down to demotionLowWater.
const (
	demotionHighWater = 0.85
	demotionLowWater  = 0.70
)

// demoteOnce runs one demotion pass over every tier that has something
// below it to demote into, giving up between slices once ctx is done.
// The router's demoter calls it on each shard in turn; it holds the
// shard's read lock for one slice at a time, so Close waits for at most
// one slice and a closed shard is left alone.
func (c *Shard) demoteOnce(ctx context.Context, sliceN int) {
	for i := 0; i < c.hier.Len()-1; i++ {
		if c.hier.Tiers[i].Capacity <= 0 {
			continue
		}
		// Above the high watermark: drain to the low watermark in
		// bounded slices. A full cursor wrap that moves nothing means
		// everything left is pinned above a full tier — give up until
		// the next tick rather than spin.
		var sinceWrap int64
		for draining := false; ctx.Err() == nil; draining = true {
			moved, wrapped, ok := c.demoteSlice(i, sliceN, draining)
			if !ok {
				break
			}
			sinceWrap += moved
			if wrapped {
				if sinceWrap == 0 {
					break
				}
				sinceWrap = 0
			}
		}
	}
}

// demoteSlice runs one bounded DemoteSlice on tier i under the shard's
// read lock if the tier needs it: past the high watermark to start a
// drain, past the low one to continue it. ok is false when there was
// nothing to do, or the shard is closed.
func (c *Shard) demoteSlice(i, sliceN int, draining bool) (moved int64, wrapped, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return 0, false, false
	}
	used, capB := float64(c.st.Used(i)), float64(c.hier.Tiers[i].Capacity)
	if !draining && used < demotionHighWater*capB || draining && used <= demotionLowWater*capB {
		return 0, false, false
	}
	var wall time.Time
	if c.tel != nil {
		wall = time.Now()
	}
	moved, wrapped = c.mgr.DemoteSlice(c.clock.Now(), i, sliceN)
	if c.tel != nil {
		c.cm.demoteSlices.Inc()
		c.cm.demoteBytes.Add(moved)
		c.cm.demoteSeconds.Observe(time.Since(wall).Seconds())
	}
	return moved, wrapped, true
}

// reqInfo resolves the identity an operation runs under: the request ID,
// tenant, and priority class the service layer propagated via
// telemetry.WithReq, with gaps filled locally — the scheduling class is
// read off the fanout context tag, and an absent request ID is
// synthesized from the shard's own counter so direct library use still
// yields groupable span trees. The counter only advances when something
// will consume the ID (trace sink or slow-op log), keeping the
// metrics-only fast path free of shared-counter traffic.
func (c *Shard) reqInfo(ctx context.Context) telemetry.ReqInfo {
	ri := telemetry.ReqOf(ctx)
	if ri.Class == "" {
		if fanout.ClassOf(ctx) == fanout.Batch {
			ri.Class = "batch"
		} else {
			ri.Class = "interactive"
		}
	}
	if ri.ID == "" && (c.sink != nil || c.slow != nil) {
		ri.ID = fmt.Sprintf("%sr%d", c.reqPrefix, c.reqSeq.Add(1))
	}
	return ri
}

func (c *Shard) attrFor(t Task) analyzer.Result {
	var hint analyzer.Hint
	if dt, ok := stats.TypeByName(t.DataType); ok && t.DataType != "" {
		hint.Type = &dt
	}
	if d, ok := stats.DistByName(t.Distribution); ok && t.Distribution != "" {
		hint.Dist = &d
	}
	return analyzer.AnalyzeWithHint(t.Data, &hint)
}

// Compress runs the write pipeline on one task: analyze it (pure CPU over
// the caller's buffer, no locks held), plan a compression + placement
// schema with the HCDP engine, and execute it against the tiered store
// through the Compression Manager's worker pool.
func (c *Shard) Compress(t Task) (*Report, error) {
	return c.CompressContext(context.Background(), t)
}

// CompressContext is Compress under a context: cancellation drains the
// codec fan-out and returns ctx.Err() before anything touches the store
// — a cancelled write leaves no trace.
//
// Failure handling, in order: a failed plan or placement triggers one
// monitor refresh + replan (the stale-view repair); if no compressing
// schema can execute at all — tiers offline, capacity gone — the write
// degrades to storing the task uncompressed on the first tier that will
// take it. A degraded write succeeds: the report carries a non-nil
// Degraded (errors.Is(rep.Degraded, ErrDegraded)) instead of an error.
func (c *Shard) CompressContext(ctx context.Context, t Task) (*Report, error) {
	ops := []writeOp{{Task: t}}
	if err := c.compress(ctx, "compress", ops); err != nil {
		return nil, err
	}
	return ops[0].rep, ops[0].err
}

// Decompress reads back the task stored under key, decoding each
// sub-task's metadata header to select the decompression library. The
// report carries the data type and distribution the Input Analyzer saw at
// write time (persisted in the task metadata).
func (c *Shard) Decompress(key string) (*Report, error) {
	return c.DecompressContext(context.Background(), key)
}

// DecompressContext is Decompress under a context: cancellation drains
// the decompression fan-out, releases every pinned payload, and returns
// ctx.Err(). A payload whose CRC32C disagrees with its header fails with
// an error matching ErrCorrupted.
func (c *Shard) DecompressContext(ctx context.Context, key string) (*Report, error) {
	ops := []readOp{{key: key}}
	if err := c.decompress(ctx, "decompress", ops); err != nil {
		return nil, err
	}
	return ops[0].rep, ops[0].err
}

// report fills rep for one completed task.
func (c *Shard) report(rep *Report, key string, size int64, attr analyzer.Result, res manager.Result, start float64) {
	*rep = Report{
		Key:            key,
		OriginalBytes:  size,
		StoredBytes:    res.Stored,
		VirtualSeconds: res.End - start,
		CodecSeconds:   res.CodecTime,
		IOSeconds:      res.IOTime,
		DataType:       attr.Type.String(),
		Distribution:   attr.Dist.String(),
	}
	if res.Stored > 0 {
		rep.Ratio = float64(size) / float64(res.Stored)
	}
	for _, sr := range res.SubResults {
		name := "?"
		if cdc, err := codec.ByID(sr.Codec); err == nil {
			name = cdc.Name()
		}
		rep.SubTasks = append(rep.SubTasks, SubTaskReport{
			Tier:             c.hier.Tiers[sr.Tier].Name,
			Codec:            name,
			OriginalBytes:    sr.OrigLen,
			StoredBytes:      sr.Stored,
			PredictedBytes:   sr.PredStored,
			PredictedSeconds: sr.PredTime,
			CodecSeconds:     sr.CodecTime,
			IOSeconds:        sr.IOTime,
		})
	}
}

// Delete removes a stored task and frees its tier capacity.
func (c *Shard) Delete(key string) error {
	var wall time.Time
	if c.tel != nil {
		wall = time.Now()
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return ErrClosed
	}
	err := c.mgr.Delete(key)
	if c.cache != nil {
		// Invalidate even when the delete failed: the token revocation is
		// cheap and a half-deleted task must never serve from cache.
		c.cache.Invalidate(key)
	}
	if c.tel != nil {
		if err != nil {
			c.cm.opErrs["delete"].Inc()
		} else {
			c.cm.ops["delete"].Inc()
			c.cm.opSeconds["delete"].Observe(time.Since(wall).Seconds())
		}
	}
	return err
}

// SetPriorities changes the cost weighting at runtime (§IV-F2). The swap
// is atomic: in-flight plans finish under the old weights, later plans
// see the new ones (the engine's weight generation counter invalidates
// its memo).
func (c *Shard) SetPriorities(p Priorities) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.eng.SetWeights(p.toWeights())
}

// TierStatusReport is the System Monitor's public view of one tier.
type TierStatusReport struct {
	Name string
	// Backend names the tier's payload plane: "mem", "file", or "cloud".
	Backend        string
	CapacityBytes  int64
	UsedBytes      int64
	RemainingBytes int64
	QueueLength    int
	// Health is the tier's health-machine state: "healthy", "degraded",
	// or "offline". Offline tiers are masked out of HCDP placement until
	// a recovery probe succeeds.
	Health string
	// ConsecutiveErrors is the current observed-error streak (zero when
	// healthy).
	ConsecutiveErrors int
	// LastTransitionVSec is the virtual time of the last health-state
	// change (zero if the tier has never transitioned).
	LastTransitionVSec float64
}

// Status reports the hierarchy's occupancy and health. It never waits on
// in-flight codec work: the store samples each tier under that tier's
// own lock, and health state lives in the monitor.
func (c *Shard) Status() []TierStatusReport {
	c.mu.RLock()
	defer c.mu.RUnlock()
	health := c.mon.Health()
	var out []TierStatusReport
	for i, s := range c.st.Status(c.clock.Now()) {
		r := TierStatusReport{
			Name:           s.Name,
			Backend:        s.Backend,
			CapacityBytes:  s.Capacity,
			UsedBytes:      s.Used,
			RemainingBytes: s.Remaining,
			QueueLength:    s.QueueLen,
		}
		if i < len(health) {
			r.Health = health[i].State.String()
			r.ConsecutiveErrors = health[i].ErrStreak
			r.LastTransitionVSec = health[i].LastTransition
		}
		out = append(out, r)
	}
	return out
}

// TierHealthReport is one tier's health snapshot.
type TierHealthReport struct {
	Name string
	// State is "healthy", "degraded", or "offline".
	State string
	// ConsecutiveErrors is the current observed-error streak.
	ConsecutiveErrors int
	// LastTransitionVSec is the virtual time of the last state change.
	LastTransitionVSec float64
	// NextProbeVSec is when an offline tier is next exposed to placement
	// as a recovery probe (zero unless offline).
	NextProbeVSec float64
}

// Health snapshots every tier's health state — the summary face of the
// health machine that Status folds into its per-tier rows.
func (c *Shard) Health() []TierHealthReport {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []TierHealthReport
	for _, h := range c.mon.Health() {
		out = append(out, TierHealthReport{
			Name:               h.Name,
			State:              h.State.String(),
			ConsecutiveErrors:  h.ErrStreak,
			LastTransitionVSec: h.LastTransition,
			NextProbeVSec:      h.NextProbe,
		})
	}
	return out
}

// Advance moves the virtual clock forward by dv seconds (non-positive
// values are ignored). Fault windows, health probes, and retry backoff
// all live on the virtual timeline, so tests and benchmarks use Advance
// to step across an outage or into a recovery window deterministically.
func (c *Shard) Advance(dv float64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.clock.Advance(dv)
}

// Stats exposes runtime counters for observability.
type Stats struct {
	// ModelAccuracy is the CCP's running prediction accuracy in [0, 1]
	// (the paper's "accuracy (R2)").
	ModelAccuracy float64
	// FeedbackQueued and FeedbackAbsorbed count feedback-loop events.
	// The CCP is the router's, so every shard of a router reports the
	// same ModelAccuracy and feedback counts.
	FeedbackQueued   int
	FeedbackAbsorbed int
	// MemoHits / MemoMisses count the HCDP engine's DP sub-problems:
	// reused within one plan's recursion, and solved. A plan served from
	// the plan cache runs no DP and adds to neither.
	MemoHits   int64
	MemoMisses int64
	// PlanCacheHits / PlanCacheMisses describe the engine's
	// whole-schema plan cache (zero when disabled or bypassed).
	PlanCacheHits   int64
	PlanCacheMisses int64
	// VirtualSeconds is the client's modeled elapsed time.
	VirtualSeconds float64
	// Tasks is the number of live stored tasks.
	Tasks int
}

// Stats snapshots runtime counters. Like Status, it only touches
// self-locked components and never blocks behind in-flight codec work.
func (c *Shard) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	q, a := c.pred.Stats()
	h, m := c.eng.MemoStats()
	ph, pm := c.eng.PlanCacheStats()
	return Stats{
		ModelAccuracy:    c.pred.R2(),
		FeedbackQueued:   q,
		FeedbackAbsorbed: a,
		MemoHits:         h,
		MemoMisses:       m,
		PlanCacheHits:    ph,
		PlanCacheMisses:  pm,
		VirtualSeconds:   c.clock.Now(),
		Tasks:            c.mgr.Tasks(),
	}
}

// Close releases the shard's cache and store. Close takes the
// lifecycle write lock, so it waits for in-flight operations, and for at
// most one demotion slice or prefetch fill of the router's background
// runner, which skips a closed shard from then on. The cost predictor,
// the worker pool and everything else process-wide stay open until
// Router.Close, which flushes the predictor's feedback and saves the
// seed once every shard has closed — the paper's MPI_Finalize hook.
func (c *Shard) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.cache != nil {
		c.cache.InvalidateAll() // hands cached payloads back to the arena
	}
	return c.st.Close()
}
