// Package core implements the paper's primary contribution: the
// Hierarchical Compression and Data Placement (HCDP) engine of §IV-F.
//
// For each incoming I/O task the engine jointly selects, per 4096-byte
// aligned sub-task, a target tier and a compression library, minimizing
// the weighted cost of equations 3-4:
//
//	t(i,l)   = I/O time of task i on tier l, uncompressed
//	t(i,l,c) = wc*tc + t(i,l) - wr * t(i,l)*(rc-1)/rc + wd*td
//
// through the Match/Place recursion of equations 1-2, subject to the
// constraints of Table I:
//
//  1. Size(p) mod 4096 = 0          (alignment, memoization reuse)
//  2. Length(P) <= Concurrency(L)   (lane bound)
//  3. Length(P) <= Length(L)        (at most one sub-task per tier)
//  4. rc >= 1                       (compression must not expand)
//  5. Size(p) <= Size(l)            (sub-task fits its tier)
//
// The DP is memoized on (remaining size, tier); because sizes are
// alignment-quantized and the engine additionally reuses its memo table
// across tasks while the System Monitor snapshot is stable, the amortized
// planning cost is practically O(1) — the property Fig. 4(a) measures.
package core

import (
	"container/list"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"hcompress/internal/analyzer"
	"hcompress/internal/codec"
	"hcompress/internal/monitor"
	"hcompress/internal/predictor"
	"hcompress/internal/seed"
	"hcompress/internal/stats"
	"hcompress/internal/store"
	"hcompress/internal/telemetry"
)

// align is the sub-task alignment from constraint 1: the RAM page size and
// the block size of modern NVMe devices.
const align = 4096

// errNoSpace is returned when a task cannot be placed anywhere in the
// hierarchy even uncompressed.
var errNoSpace = errors.New("hcdp: no tier can hold the task")

// SubTask is one (byte range, tier, codec) assignment within a schema.
type SubTask struct {
	Offset int64    // offset of this piece within the original task
	Length int64    // original (uncompressed) length of the piece
	Tier   int      // destination tier index (0 = highest)
	Codec  codec.ID // selected compression library (None allowed)
	// PredSize is the engine's estimate of the compressed size that will
	// occupy the tier (alignment-rounded).
	PredSize int64
	// PredTime is the modeled duration of this sub-task (equation 3/4).
	PredTime float64
}

// Schema is the engine's output: an ordered set of sub-tasks covering the
// task exactly (§IV-A: "a schema consists of P sub-tasks").
type Schema struct {
	SubTasks []SubTask
	// PredTime is the total modeled task duration.
	PredTime float64
}

// Config tunes the engine; zero value gives the paper's defaults.
type Config struct {
	// Weights are the application's compression priorities (Table II).
	Weights seed.Weights
	// DisableMemo turns off DP memoization (ablation).
	DisableMemo bool
	// DisableCompression restricts the engine to placement only
	// (the MTNC baseline uses this).
	DisableCompression bool
	// LoadAware adds the tier's queue backlog to the modeled I/O time.
	LoadAware bool
	// DisablePlanCache turns off the whole-schema plan cache that sits
	// in front of the DP memo (ablation / debugging). The cache is also
	// bypassed automatically when it cannot be correct: under
	// DisableMemo (plans are recomputed each call by design) and under
	// LoadAware (the cost depends on continuously-varying backlog that
	// no fingerprint captures).
	DisablePlanCache bool
	// Codecs restricts selection to these library names (default: all
	// registered codecs).
	Codecs []string
	// Telemetry, when non-nil, receives the engine's instruments: memo
	// hit/miss, plans served, weight-generation bumps, and the plan-depth
	// histogram (sub-tasks per schema).
	Telemetry *telemetry.Registry
}

// Engine is the HCDP engine. It is safe for concurrent callers: the memo
// table and capacity fingerprint are guarded by an RWMutex so planners
// whose answer is already memoized share a read lock (the common steady
// state), and only a planner that must run the Match/Place recursion
// takes the write lock. SetWeights is atomic with respect to Plan and
// invalidates the memo through a generation counter rather than by
// clearing the table inline.
type Engine struct {
	pred   *predictor.CCP
	mon    *monitor.SystemMonitor
	cfg    Config        // immutable after New
	pool   []codec.Codec // candidate codecs, None excluded; immutable
	price  []float64     // per-tier displacement price (sec/byte); immutable
	dollar []float64     // per-tier $ price ($/byte, storage+egress); immutable

	mu        sync.RWMutex // guards w, memo, memoStamp, memoGen, memoEpoch
	w         seed.Weights
	memo      map[memoKey]planVal
	memoStamp []int64 // bucketed remaining-capacity fingerprint
	memoGen   int64   // generation the memo was built under
	memoEpoch int64   // bumped every time the memo table is rebuilt

	// Plan cache: finished schemas keyed by the analysis fingerprint
	// and task size, valid for exactly one memo epoch (see planCache).
	pc planCache

	gen         atomic.Int64 // bumped whenever weights change
	memoHits    atomic.Int64
	memoMisses  atomic.Int64
	plansServed atomic.Int64

	tm engineMetrics // nil instruments when telemetry is off
}

// planCacheSize bounds the schema cache; plans are keyed by (type, dist,
// size), so steady-state workloads touch a handful of entries.
const planCacheSize = 128

// planKey is the analysis fingerprint a schema depends on: of the
// analyzer's verdict only Type and Dist feed the cost model (via the
// CCP), and the task size selects the DP root. Capacity fingerprint and
// weight generation are carried by the memo epoch, not the key.
type planKey struct {
	typ  stats.DataType
	dist stats.Dist
	size int64
}

type planEntry struct {
	key    planKey
	epoch  int64  // memo epoch the schema was reconstructed under
	schema Schema // shared, read-only
	hits   int64  // memo entries the original reconstruction consumed
}

// planCache is a small LRU of finished schemas in front of the DP memo.
// An entry is valid only while the memo table it was reconstructed from
// is still live (same epoch): the epoch bumps whenever the memo is
// rebuilt — weight-generation change, capacity-bucket drift — so a hit
// returns byte-for-byte the schema the memo path would have produced.
// It has its own lock (never held together with Engine.mu ordering
// concerns: callers never take Engine.mu while holding it).
type planCache struct {
	mu  sync.Mutex
	lru list.List // of *planEntry, front = most recent
	idx map[planKey]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

func (p *planCache) get(key planKey, epoch int64) (Schema, int64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	el, ok := p.idx[key]
	if !ok {
		return Schema{}, 0, false
	}
	e := el.Value.(*planEntry)
	if e.epoch != epoch {
		// Stale epoch: the memo was rebuilt since this schema was
		// cached. Drop it eagerly.
		p.lru.Remove(el)
		delete(p.idx, key)
		return Schema{}, 0, false
	}
	p.lru.MoveToFront(el)
	return e.schema, e.hits, true
}

func (p *planCache) put(key planKey, epoch int64, schema Schema, hits int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.idx == nil {
		p.idx = make(map[planKey]*list.Element, planCacheSize)
	}
	if el, ok := p.idx[key]; ok {
		e := el.Value.(*planEntry)
		e.epoch, e.schema, e.hits = epoch, schema, hits
		p.lru.MoveToFront(el)
		return
	}
	for p.lru.Len() >= planCacheSize {
		back := p.lru.Back()
		delete(p.idx, back.Value.(*planEntry).key)
		p.lru.Remove(back)
	}
	p.idx[key] = p.lru.PushFront(&planEntry{key: key, epoch: epoch, schema: schema, hits: hits})
}

// engineMetrics are the HCDP engine's instruments; all fields nil when
// telemetry is off (instrument methods no-op on nil).
type engineMetrics struct {
	memoHits      *telemetry.Counter
	memoMisses    *telemetry.Counter
	plans         *telemetry.Counter
	weightBumps   *telemetry.Counter
	planDepth     *telemetry.Histogram
	planCacheHits *telemetry.Counter
	planCacheMiss *telemetry.Counter
}

// newEngineMetrics registers the engine's instruments on reg; a nil
// registry leaves telemetry off.
func newEngineMetrics(reg *telemetry.Registry) engineMetrics {
	if reg == nil {
		return engineMetrics{}
	}
	return engineMetrics{
		memoHits:      reg.Counter("hc_hcdp_memo_hits_total", "DP memo entries reused"),
		memoMisses:    reg.Counter("hc_hcdp_memo_misses_total", "DP sub-problems solved from scratch"),
		plans:         reg.Counter("hc_hcdp_plans_total", "schemas planned"),
		weightBumps:   reg.Counter("hc_hcdp_weight_generation_total", "runtime priority-weight changes"),
		planDepth:     reg.Histogram("hc_hcdp_plan_subtasks", "sub-tasks per planned schema", telemetry.DepthBuckets),
		planCacheHits: reg.Counter("hc_hcdp_plan_cache_hits_total", "whole schemas served from the plan cache"),
		planCacheMiss: reg.Counter("hc_hcdp_plan_cache_misses_total", "plans that had to run reconstruction or the DP"),
	}
}

type memoKey struct {
	size int64
	tier int
}

type planVal struct {
	time     float64
	codec    codec.ID
	predSize int64
	useLen   int64 // bytes of the remaining task placed on this tier
	skip     bool  // tier skipped entirely
}

// New creates an engine over a predictor and system monitor.
func New(pred *predictor.CCP, mon *monitor.SystemMonitor, cfg Config) (*Engine, error) {
	e := &Engine{pred: pred, mon: mon, cfg: cfg, w: cfg.Weights.Normalize(), tm: newEngineMetrics(cfg.Telemetry)}
	if cfg.DisableCompression {
		// Placement-only mode: no codec candidates.
	} else if len(cfg.Codecs) == 0 {
		for _, c := range codec.All() {
			if c.ID() != codec.None {
				e.pool = append(e.pool, c)
			}
		}
	} else {
		for _, name := range cfg.Codecs {
			c, err := codec.ByName(name)
			if err != nil {
				return nil, err
			}
			if c.ID() != codec.None {
				e.pool = append(e.pool, c)
			}
		}
	}
	e.memo = make(map[memoKey]planVal)

	// The displacement term is the opportunity cost of occupying fast-tier
	// space. The paper's objective seeks the global minimum "when most of
	// the data fits in higher tiers"; a purely per-task cost cannot see
	// that placing large uncompressed payloads high displaces future data
	// to slow media, so the engine charges each placement the service-time
	// difference its footprint will eventually cost at the bottom of the
	// hierarchy, weighted by the ratio priority. This is what makes the
	// engine "apply heavier compression on RAM than on NVMe SSD". The
	// prices are a property of the hierarchy alone: the per-byte
	// service-time gap between each tier and the bottom tier.
	hier := mon.Store().Hierarchy()
	e.price = make([]float64, hier.Len())
	last := hier.Tiers[hier.Len()-1]
	lastPerByte := 1 / (last.Bandwidth / float64(maxInt(1, last.Lanes)))
	for i, spec := range hier.Tiers {
		perByte := 1 / (spec.Bandwidth / float64(maxInt(1, spec.Lanes)))
		p := lastPerByte - perByte
		if p < 0 {
			p = 0
		}
		e.price[i] = p
	}
	// Dollar prices are likewise static per hierarchy: what one byte
	// placed on tier l costs in storage (one month resident) plus one
	// eventual egress read. They enter the objective only through the
	// Cost weight, so the default zero weight keeps plans bit-identical
	// to the purely time-based DP.
	e.dollar = make([]float64, hier.Len())
	for i, spec := range hier.Tiers {
		e.dollar[i] = (spec.CostPerGBMonth + spec.EgressCostPerGB) / float64(int64(1)<<30)
	}
	return e, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// SetWeights changes the priority weights at runtime (§IV-F2: "more
// advanced users can leverage the HCompress API to dynamically change
// these weights at runtime"). The swap is atomic with respect to
// concurrent Plan calls: in-flight planners finish against the old
// weights, and the generation bump invalidates every memoized decision
// so later plans cannot mix the two weightings.
func (e *Engine) SetWeights(w seed.Weights) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.w = w.Normalize()
	e.gen.Add(1)
	e.tm.weightBumps.Inc()
}

// MemoStats reports DP cache behaviour (hits, misses).
func (e *Engine) MemoStats() (hits, misses int64) {
	return e.memoHits.Load(), e.memoMisses.Load()
}

// PlanCacheStats reports whole-schema cache behaviour (hits, misses).
// Both stay zero when the cache is disabled or bypassed.
func (e *Engine) PlanCacheStats() (hits, misses int64) {
	return e.pc.hits.Load(), e.pc.misses.Load()
}

// planCacheUsable reports whether the plan cache can be consulted at
// all under this configuration (see Config.DisablePlanCache).
func (e *Engine) planCacheUsable() bool {
	return !e.cfg.DisableMemo && !e.cfg.DisablePlanCache && !e.cfg.LoadAware
}

// alignUp rounds n up to the alignment quantum.
func alignUp(n int64) int64 {
	if n <= 0 {
		return align
	}
	return (n + align - 1) / align * align
}

func alignDown(n int64) int64 { return n / align * align }

// Plan produces the compression + placement schema for a task of the given
// size and analyzed attributes at virtual time now. It is safe for
// concurrent callers: a task whose schema is already in the plan cache is
// served without touching the DP at all; when the full decision chain for
// this size is memoized under the current capacity fingerprint and weight
// generation, the schema is reconstructed under the shared read lock with
// no exclusive section; otherwise the planner takes the write lock and
// runs the Match/Place recursion.
//
// The returned Schema may be shared with other callers (the plan cache
// hands out one value); callers must treat it as read-only.
func (e *Engine) Plan(now float64, attr analyzer.Result, size int64) (Schema, error) {
	if size <= 0 {
		return Schema{}, fmt.Errorf("hcdp: non-positive task size %d", size)
	}
	statuses := e.mon.Status(now)
	if len(statuses) == 0 {
		return Schema{}, errors.New("hcdp: empty hierarchy")
	}
	// The DP plans in aligned size quanta; the true size is restored on
	// the final sub-task.
	asize := alignUp(size)
	useCache := e.planCacheUsable()
	key := planKey{typ: attr.Type, dist: attr.Dist, size: size}
	var stampArr [8]int64 // stack space for the common hierarchy depths
	stamp := e.capacityStampInto(stampArr[:0], statuses)

	if !e.cfg.DisableMemo {
		e.mu.RLock()
		if e.memoGen == e.gen.Load() && stampEqual(stamp, e.memoStamp) {
			epoch := e.memoEpoch
			if useCache {
				if schema, hits, ok := e.pc.get(key, epoch); ok {
					e.mu.RUnlock()
					e.pc.hits.Add(1)
					e.tm.planCacheHits.Inc()
					e.memoHits.Add(hits)
					e.plansServed.Add(1)
					e.tm.memoHits.Add(hits)
					e.tm.plans.Inc()
					e.tm.planDepth.Observe(float64(len(schema.SubTasks)))
					return schema, nil
				}
			}
			if schema, hits, ok := e.reconstructLocked(size, asize, len(statuses)); ok {
				e.mu.RUnlock()
				if useCache {
					e.pc.misses.Add(1)
					e.tm.planCacheMiss.Inc()
					e.pc.put(key, epoch, schema, hits)
				}
				e.memoHits.Add(hits)
				e.plansServed.Add(1)
				e.tm.memoHits.Add(hits)
				e.tm.plans.Inc()
				e.tm.planDepth.Observe(float64(len(schema.SubTasks)))
				return schema, nil
			}
		}
		e.mu.RUnlock()
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	e.refreshMemoStamp(statuses)
	e.plansServed.Add(1)
	if _, err := e.match(asize, 0, attr, statuses); err != nil {
		return Schema{}, err
	}
	schema, hits, ok := e.reconstructLocked(size, asize, len(statuses))
	if !ok {
		return Schema{}, errors.New("hcdp: internal: missing memo entry during reconstruction")
	}
	if useCache {
		e.pc.misses.Add(1)
		e.tm.planCacheMiss.Inc()
		e.pc.put(key, e.memoEpoch, schema, hits)
	}
	e.tm.plans.Inc()
	e.tm.planDepth.Observe(float64(len(schema.SubTasks)))
	return schema, nil
}

// reconstructLocked replays the memoized decision chain for a task of the
// given (true, aligned) size into a schema. It returns ok=false when any
// link of the chain is absent. Callers must hold e.mu (read or write);
// hits reports how many memo entries the walk consumed.
func (e *Engine) reconstructLocked(size, asize int64, nTiers int) (Schema, int64, bool) {
	var schema Schema
	var hits int64
	remaining := asize
	var offset int64
	l := 0
	for remaining > 0 {
		if l >= nTiers {
			return Schema{}, hits, false
		}
		v, ok := e.memo[memoKey{remaining, l}]
		if !ok {
			return Schema{}, hits, false
		}
		hits++
		if v.skip {
			l++
			continue
		}
		length := v.useLen
		origLen := length
		if offset+length >= asize { // final piece: restore true size
			origLen = size - offset
		}
		schema.SubTasks = append(schema.SubTasks, SubTask{
			Offset:   offset,
			Length:   origLen,
			Tier:     l,
			Codec:    v.codec,
			PredSize: v.predSize,
			PredTime: v.time,
		})
		schema.PredTime += v.time
		offset += origLen
		remaining -= length
		l++
	}
	return schema, hits, true
}

// match implements Match(i, l, c) / Place(i, l, c) jointly: the best cost
// of storing size bytes using tiers l.. (each at most once). It memoizes
// on (size, l) and records the winning decision for reconstruction.
// Callers must hold e.mu exclusively.
func (e *Engine) match(size int64, l int, attr analyzer.Result, statuses []store.TierStatus) (float64, error) {
	if size == 0 {
		return 0, nil
	}
	if l >= len(statuses) {
		return math.Inf(1), errNoSpace
	}
	key := memoKey{size, l}
	if !e.cfg.DisableMemo {
		if v, ok := e.memo[key]; ok {
			e.memoHits.Add(1)
			e.tm.memoHits.Add(1)
			return v.time, nil
		}
	}
	e.memoMisses.Add(1)
	e.tm.memoMisses.Add(1)

	best := planVal{time: math.Inf(1)}

	// Choice A: skip this tier entirely — Match(i, l+1, c).
	if sub, err := e.match(size, l+1, attr, statuses); err == nil && sub < best.time {
		best = planVal{time: sub, skip: true}
	}

	// Degraded mode: an offline tier admits only the skip choice, so no
	// schema — fresh or replayed from the plan cache — ever targets it.
	if !statuses[l].Available {
		if math.IsInf(best.time, 1) {
			return best.time, errNoSpace
		}
		e.memo[key] = best
		return best.time, nil
	}

	remaining := alignDown(statuses[l].Remaining)

	// Choice B: "no compression" placement (c = 0), whole or split.
	e.consider(&best, size, l, codec.None, 1, e.uncompressedTime(size, l, statuses), remaining, attr, statuses)

	// Choice C: each codec, whole or split — Place(i, l, c) with the
	// cost function of equation 4.
	for _, c := range e.pool {
		cost, ok := e.pred.Predict(attr.Type, attr.Dist, c.Name())
		if !ok {
			continue
		}
		rc := cost.Ratio
		if rc < 1 {
			continue // constraint 4
		}
		e.consider(&best, size, l, c.ID(), rc, e.compressedTime(size, l, cost, statuses), remaining, attr, statuses)
	}

	if math.IsInf(best.time, 1) {
		return best.time, errNoSpace
	}
	if !e.cfg.DisableMemo {
		e.memo[key] = best
	} else {
		// Reconstruction still needs the decision trail.
		e.memo[key] = best
	}
	return best.time, nil
}

// consider evaluates placing (part of) size bytes on tier l with the given
// codec/ratio, whose full-task time is fullTime, updating best in place.
func (e *Engine) consider(best *planVal, size int64, l int, id codec.ID, rc, fullTime float64, remaining int64, attr analyzer.Result, statuses []store.TierStatus) {
	compSize := alignUp(int64(math.Ceil(float64(size) / rc)))
	// Displacement: occupying compSize bytes here will eventually push
	// that much future data down to the slowest tier (weighted by the
	// ratio priority, which expresses how much the caller values space).
	fullTime += e.w.Ratio * float64(compSize) * e.price[l]
	// Dollar cost: storage + egress pricing for the bytes placed here,
	// blended into the time objective by the Cost weight. Guarded so a
	// zero weight adds nothing to the float pipeline and existing plans
	// stay bit-identical.
	if e.w.Cost != 0 {
		fullTime += e.w.Cost * float64(compSize) * e.dollar[l]
	}
	if compSize <= remaining {
		// Whole task fits here (constraint 5 satisfied).
		if fullTime < best.time {
			*best = planVal{time: fullTime, codec: id, predSize: compSize, useLen: size}
		}
		return
	}
	// Split: the part that fits stays, the rest recurses to tier l+1
	// (equation 2). Both parts stay 4096-aligned (constraint 1).
	if remaining < align || l+1 >= len(statuses) {
		return
	}
	origFit := alignDown(int64(float64(remaining) * rc))
	if origFit >= size {
		origFit = size - align // fitting "almost all" still forces a split
	}
	if origFit < align {
		return
	}
	partTime := fullTime * float64(origFit) / float64(size)
	rest, err := e.match(size-origFit, l+1, attr, statuses)
	if err != nil {
		return
	}
	total := partTime + rest
	if total < best.time {
		*best = planVal{
			time:     total,
			codec:    id,
			predSize: alignUp(int64(math.Ceil(float64(origFit) / rc))),
			useLen:   origFit,
		}
	}
}

// uncompressedTime is t(i, l) = si/bl plus latency (and queue backlog when
// load-aware).
func (e *Engine) uncompressedTime(size int64, l int, statuses []store.TierStatus) float64 {
	spec := e.mon.Store().Hierarchy().Tiers[l]
	t := spec.ServiceTime(size)
	if e.cfg.LoadAware {
		t += statuses[l].Backlog / float64(spec.Lanes)
	}
	return t
}

// compressedTime is equation 4:
//
//	t(i,l,c) = wc*tc + t(i,l) - wr * t(i,l)*(rc-1)/rc + wd*td
func (e *Engine) compressedTime(size int64, l int, cost seed.CodecCost, statuses []store.TierStatus) float64 {
	mb := float64(size) / (1 << 20)
	tc := mb / cost.CompressMBps
	td := mb / cost.DecompressMBps
	til := e.uncompressedTime(size, l, statuses)
	rc := cost.Ratio
	return e.w.Compression*tc + til - e.w.Ratio*til*(rc-1)/rc + e.w.Decompression*td
}

// capacityStamp buckets the hierarchy's remaining capacities (1/64 of
// each tier's capacity per bucket). Bucketing is what makes sub-problems
// reusable *across* tasks, turning repeated planning into table lookups;
// the slight staleness is bounded by the bucket size and corrected by the
// placement path, which re-checks true capacity.
func (e *Engine) capacityStamp(statuses []store.TierStatus) []int64 {
	return e.capacityStampInto(make([]int64, 0, len(statuses)), statuses)
}

// capacityStampInto appends the stamp to dst, letting hot callers keep
// the fingerprint on the stack.
func (e *Engine) capacityStampInto(dst []int64, statuses []store.TierStatus) []int64 {
	for _, st := range statuses {
		if !st.Available {
			// Masked tier: a marker no occupancy bucket can produce, so an
			// availability flip always changes the stamp, rebuilding the
			// memo and bumping the epoch that keys the plan cache.
			dst = append(dst, -1)
			continue
		}
		bucket := st.Capacity / 64
		if bucket == 0 {
			bucket = 1
		}
		dst = append(dst, st.Remaining/bucket)
	}
	return dst
}

func stampEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refreshMemoStamp invalidates the memo table when the hierarchy's
// remaining capacities have moved out of their buckets since the table was
// built, or when SetWeights bumped the generation counter. Callers must
// hold e.mu exclusively.
func (e *Engine) refreshMemoStamp(statuses []store.TierStatus) {
	if e.cfg.DisableMemo {
		e.memo = make(map[memoKey]planVal)
		e.memoStamp = nil
		e.memoEpoch++
		return
	}
	gen := e.gen.Load()
	stamp := e.capacityStamp(statuses)
	if e.memoGen != gen || !stampEqual(stamp, e.memoStamp) {
		e.memo = make(map[memoKey]planVal)
		e.memoStamp = stamp
		e.memoGen = gen
		// New table, new epoch: every plan-cache entry reconstructed
		// from the old table is now stale (SetWeights invalidation
		// flows through here via the generation counter).
		e.memoEpoch++
	}
}
