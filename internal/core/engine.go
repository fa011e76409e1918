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
// Each plan runs its own DP, memoized on (remaining size, tier) and with
// every candidate codec's cost predicted once for the task's data. The
// only state shared across plans is the plan cache, which keys finished
// schemas on everything a plan depends on — data type, distribution,
// size, weight generation and the System Monitor's capacity stamp — so a
// repeated task is planned in practically O(1), the property Fig. 4(a)
// measures, and a task never inherits a plan made for other data.
package core

import (
	"container/list"
	"errors"
	"fmt"
	"math"
	"slices"
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
	"hcompress/internal/tier"
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
	// PredTime is the modeled duration of this sub-task alone (equation
	// 3/4): on a split, not the pieces after it.
	PredTime float64
}

// Schema is the engine's output: an ordered set of sub-tasks covering the
// task exactly (§IV-A: "a schema consists of P sub-tasks").
type Schema struct {
	SubTasks []SubTask
	// PredTime is the total modeled task duration, the DP's optimum: the
	// sub-tasks' PredTime sum to it.
	PredTime float64
}

// Config tunes the engine; zero value gives the paper's defaults.
type Config struct {
	// Weights are the application's compression priorities (Table II).
	Weights seed.Weights
	// DisableCompression restricts the engine to placement only
	// (the MTNC baseline uses this).
	DisableCompression bool
	// LoadAware adds the tier's queue backlog to the modeled I/O time.
	LoadAware bool
	// DisablePlanCache turns off the whole-schema plan cache, so every
	// plan runs the DP (ablation / debugging). The cache is also bypassed
	// automatically under LoadAware: the cost depends on
	// continuously-varying backlog that no capacity stamp captures.
	DisablePlanCache bool
	// Codecs restricts selection to these library names (default: all
	// registered codecs).
	Codecs []string
	// Telemetry, when non-nil, receives the engine's instruments: DP
	// sub-problem reuse, plans served, plan-cache hit/miss, weight-
	// generation bumps, and the plan-depth histogram (sub-tasks per
	// schema).
	Telemetry *telemetry.Registry
}

// Engine is the HCDP engine. It is safe for concurrent callers: every
// Plan runs its DP as a value of its own over a snapshot of the weights
// and tier statuses, so planners share nothing mutable but the plan cache,
// which has its own lock. mu guards only the weights: SetWeights swaps
// them together with their generation, which is part of every cache key.
type Engine struct {
	pred   *predictor.CCP
	mon    *monitor.SystemMonitor
	cfg    Config        // immutable after New
	pool   []codec.Codec // candidate codecs, None excluded; immutable
	price  []float64     // per-tier displacement price (sec/byte); immutable
	dollar []float64     // per-tier $ price ($/byte, storage+egress); immutable

	mu  sync.RWMutex // guards w and gen
	w   seed.Weights
	gen int64 // bumped whenever weights change

	pc planCache

	memoHits   atomic.Int64
	memoMisses atomic.Int64

	tm engineMetrics // nil instruments when telemetry is off
}

// planCacheSize bounds the schema cache; plans are keyed by (type, dist,
// size), so steady-state workloads touch a handful of entries.
const planCacheSize = 128

// planKey selects a plan-cache slot: of the analyzer's verdict only Type
// and Dist feed the cost model (via the CCP), and the task size selects
// the DP root.
type planKey struct {
	typ  stats.DataType
	dist stats.Dist
	size int64
}

type planEntry struct {
	key    planKey
	gen    int64   // weight generation the schema was planned under
	stamp  []int64 // capacity stamp the schema was planned under
	schema Schema  // shared, read-only
}

// planCache is a small LRU of finished schemas. An entry answers only a
// plan with its key, weight generation and capacity stamp, so a hit
// returns the schema the DP would produce for the same inputs; a slot
// whose generation or stamp has moved is dropped on lookup. The CCP's
// model is not part of the key: feedback reaches a cached task once its
// weights or stamp move.
type planCache struct {
	mu  sync.Mutex
	lru list.List // of *planEntry, front = most recent
	idx map[planKey]*list.Element

	hits   atomic.Int64
	misses atomic.Int64
}

func (p *planCache) get(key planKey, gen int64, stamp []int64) (Schema, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	el, ok := p.idx[key]
	if !ok {
		return Schema{}, false
	}
	e := el.Value.(*planEntry)
	if e.gen != gen || !slices.Equal(e.stamp, stamp) {
		p.lru.Remove(el)
		delete(p.idx, key)
		return Schema{}, false
	}
	p.lru.MoveToFront(el)
	return e.schema, true
}

func (p *planCache) put(key planKey, gen int64, stamp []int64, schema Schema) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.idx == nil {
		p.idx = make(map[planKey]*list.Element, planCacheSize)
	}
	if el, ok := p.idx[key]; ok {
		e := el.Value.(*planEntry)
		e.gen, e.stamp, e.schema = gen, append(e.stamp[:0], stamp...), schema
		p.lru.MoveToFront(el)
		return
	}
	for p.lru.Len() >= planCacheSize {
		back := p.lru.Back()
		delete(p.idx, back.Value.(*planEntry).key)
		p.lru.Remove(back)
	}
	p.idx[key] = p.lru.PushFront(&planEntry{key: key, gen: gen, stamp: slices.Clone(stamp), schema: schema})
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
		memoHits:      reg.Counter("hc_hcdp_memo_hits_total", "DP sub-problems reused within one plan's recursion"),
		memoMisses:    reg.Counter("hc_hcdp_memo_misses_total", "DP sub-problems solved"),
		plans:         reg.Counter("hc_hcdp_plans_total", "schemas planned"),
		weightBumps:   reg.Counter("hc_hcdp_weight_generation_total", "runtime priority-weight changes"),
		planDepth:     reg.Histogram("hc_hcdp_plan_subtasks", "sub-tasks per planned schema", telemetry.DepthBuckets),
		planCacheHits: reg.Counter("hc_hcdp_plan_cache_hits_total", "whole schemas served from the plan cache"),
		planCacheMiss: reg.Counter("hc_hcdp_plan_cache_misses_total", "plans that had to run the DP"),
	}
}

type memoKey struct {
	size int64
	tier int
}

type planVal struct {
	time     float64 // cost of the whole sub-problem: this piece and, on a split, the rest
	part     float64 // cost of this tier's piece alone
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
// weights, and the generation bump retires every cached schema so later
// plans cannot mix the two weightings.
func (e *Engine) SetWeights(w seed.Weights) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.w = w.Normalize()
	e.gen++
	e.tm.weightBumps.Inc()
}

// MemoStats reports DP sub-problem reuse summed over every plan that ran
// the DP: hits are sub-problems a recursion found already solved within
// the same plan, misses are sub-problems it solved.
func (e *Engine) MemoStats() (hits, misses int64) {
	return e.memoHits.Load(), e.memoMisses.Load()
}

// PlanCacheStats reports whole-schema cache behaviour (hits, misses).
// Both stay zero when the cache is disabled or bypassed.
func (e *Engine) PlanCacheStats() (hits, misses int64) {
	return e.pc.hits.Load(), e.pc.misses.Load()
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
// concurrent callers: a task whose schema is in the plan cache under the
// current weight generation and capacity stamp is served from it;
// otherwise the planner runs the Match/Place recursion on its own, holding
// no engine lock.
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
	e.mu.RLock()
	w, gen := e.w, e.gen
	e.mu.RUnlock()

	useCache := !e.cfg.DisablePlanCache && !e.cfg.LoadAware // see Config.DisablePlanCache
	key := planKey{typ: attr.Type, dist: attr.Dist, size: size}
	var stampArr [8]int64 // stack space for the common hierarchy depths
	stamp := capacityStamp(stampArr[:0], statuses)
	schema, ok := Schema{}, false
	if useCache {
		schema, ok = e.pc.get(key, gen, stamp)
	}
	if ok {
		e.pc.hits.Add(1)
		e.tm.planCacheHits.Inc()
	} else {
		var err error
		if schema, err = e.solve(w, attr, size, statuses); err != nil {
			return Schema{}, err
		}
		if useCache {
			e.pc.misses.Add(1)
			e.tm.planCacheMiss.Inc()
			e.pc.put(key, gen, stamp, schema)
		}
	}
	e.tm.plans.Inc()
	e.tm.planDepth.Observe(float64(len(schema.SubTasks)))
	return schema, nil
}

// dp is one run of the Match/Place recursion: the weights and tier
// snapshot it plans against, the candidate codecs priced for the task's
// data, and its memo of solved (size, tier) sub-problems, which doubles as
// the decision trail reconstruction replays.
type dp struct {
	e        *Engine
	w        seed.Weights
	tiers    []tier.Spec
	statuses []store.TierStatus
	cands    []candidate
	memo     map[memoKey]planVal
	hits     int64
	misses   int64
}

// candidate is a codec with its predicted cost on the task's data.
type candidate struct {
	id   codec.ID
	cost seed.CodecCost
}

// solve runs the DP for one task and reconstructs its schema.
func (e *Engine) solve(w seed.Weights, attr analyzer.Result, size int64, statuses []store.TierStatus) (Schema, error) {
	d := dp{e: e, w: w, tiers: e.mon.Store().Hierarchy().Tiers, statuses: statuses, memo: make(map[memoKey]planVal)}
	// The cost model depends on the task's data, not on the (size, tier)
	// node asking, so each codec is priced once.
	for _, c := range e.pool {
		cost, ok := e.pred.Predict(attr.Type, attr.Dist, c.Name())
		if ok && cost.Ratio >= 1 { // constraint 4
			d.cands = append(d.cands, candidate{id: c.ID(), cost: cost})
		}
	}
	asize := alignUp(size) // the DP plans in aligned quanta
	best, err := d.match(asize, 0)
	e.memoHits.Add(d.hits)
	e.memoMisses.Add(d.misses)
	e.tm.memoHits.Add(d.hits)
	e.tm.memoMisses.Add(d.misses)
	if err != nil {
		return Schema{}, err
	}
	schema, ok := d.reconstruct(size, asize)
	if !ok {
		return Schema{}, errors.New("hcdp: internal: missing memo entry during reconstruction")
	}
	schema.PredTime = best
	return schema, nil
}

// reconstruct replays the decision chain for a task of the given (true,
// aligned) size into a schema, restoring the true size on the final
// sub-task. It returns ok=false when any link of the chain is absent.
func (d *dp) reconstruct(size, asize int64) (Schema, bool) {
	var schema Schema
	remaining := asize
	var offset int64
	for l := 0; remaining > 0; l++ {
		v, ok := d.memo[memoKey{remaining, l}]
		if !ok {
			return Schema{}, false
		}
		if v.skip {
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
			PredTime: v.part,
		})
		offset += origLen
		remaining -= length
	}
	return schema, true
}

// match implements Match(i, l, c) / Place(i, l, c) jointly: the best cost
// of storing size bytes using tiers l.. (each at most once). It memoizes
// on (size, l) and records the winning decision for reconstruction.
func (d *dp) match(size int64, l int) (float64, error) {
	if size == 0 {
		return 0, nil
	}
	if l >= len(d.statuses) {
		return math.Inf(1), errNoSpace
	}
	key := memoKey{size, l}
	if v, ok := d.memo[key]; ok {
		d.hits++
		return v.time, nil
	}
	d.misses++

	best := planVal{time: math.Inf(1)}

	// Choice A: skip this tier entirely — Match(i, l+1, c).
	if sub, err := d.match(size, l+1); err == nil && sub < best.time {
		best = planVal{time: sub, skip: true}
	}

	// Degraded mode: an offline tier admits only the skip choice, so no
	// schema — fresh or served from the plan cache — ever targets it.
	if !d.statuses[l].Available {
		if math.IsInf(best.time, 1) {
			return best.time, errNoSpace
		}
		d.memo[key] = best
		return best.time, nil
	}

	remaining := alignDown(d.statuses[l].Remaining)

	// Choice B: "no compression" placement (c = 0), whole or split.
	d.consider(&best, size, l, codec.None, 1, d.uncompressedTime(size, l), remaining)

	// Choice C: each codec, whole or split — Place(i, l, c) with the
	// cost function of equation 4.
	for _, c := range d.cands {
		d.consider(&best, size, l, c.id, c.cost.Ratio, d.compressedTime(size, l, c.cost), remaining)
	}

	if math.IsInf(best.time, 1) {
		return best.time, errNoSpace
	}
	d.memo[key] = best
	return best.time, nil
}

// consider evaluates placing (part of) size bytes on tier l with the given
// codec/ratio, whose full-task time is fullTime, updating best in place.
func (d *dp) consider(best *planVal, size int64, l int, id codec.ID, rc, fullTime float64, remaining int64) {
	compSize := alignUp(int64(math.Ceil(float64(size) / rc)))
	// Displacement: occupying compSize bytes here will eventually push
	// that much future data down to the slowest tier (weighted by the
	// ratio priority, which expresses how much the caller values space).
	fullTime += d.w.Ratio * float64(compSize) * d.e.price[l]
	// Dollar cost: storage + egress pricing for the bytes placed here,
	// blended into the time objective by the Cost weight. Guarded so a
	// zero weight adds nothing to the float pipeline and existing plans
	// stay bit-identical.
	if d.w.Cost != 0 {
		fullTime += d.w.Cost * float64(compSize) * d.e.dollar[l]
	}
	if compSize <= remaining {
		// Whole task fits here (constraint 5 satisfied).
		if fullTime < best.time {
			*best = planVal{time: fullTime, part: fullTime, codec: id, predSize: compSize, useLen: size}
		}
		return
	}
	// Split: the part that fits stays, the rest recurses to tier l+1
	// (equation 2). Both parts stay 4096-aligned (constraint 1).
	if remaining < align || l+1 >= len(d.statuses) {
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
	rest, err := d.match(size-origFit, l+1)
	if err != nil {
		return
	}
	total := partTime + rest
	if total < best.time {
		*best = planVal{
			time:     total,
			part:     partTime,
			codec:    id,
			predSize: alignUp(int64(math.Ceil(float64(origFit) / rc))),
			useLen:   origFit,
		}
	}
}

// uncompressedTime is t(i, l) = si/bl plus latency (and queue backlog when
// load-aware).
func (d *dp) uncompressedTime(size int64, l int) float64 {
	spec := d.tiers[l]
	t := spec.ServiceTime(size)
	if d.e.cfg.LoadAware {
		t += d.statuses[l].Backlog / float64(spec.Lanes)
	}
	return t
}

// compressedTime is equation 4:
//
//	t(i,l,c) = wc*tc + t(i,l) - wr * t(i,l)*(rc-1)/rc + wd*td
func (d *dp) compressedTime(size int64, l int, cost seed.CodecCost) float64 {
	mb := float64(size) / (1 << 20)
	tc := mb / cost.CompressMBps
	td := mb / cost.DecompressMBps
	til := d.uncompressedTime(size, l)
	rc := cost.Ratio
	return d.w.Compression*tc + til - d.w.Ratio*til*(rc-1)/rc + d.w.Decompression*td
}

// capacityStamp appends to dst the hierarchy's remaining capacities,
// bucketed at 1/64 of each tier's capacity. It is part of the plan-cache
// key: a cached schema serves later tasks only while every tier stays in
// its bucket, a staleness bounded by the bucket size and corrected by the
// placement path, which re-checks true capacity.
func capacityStamp(dst []int64, statuses []store.TierStatus) []int64 {
	for _, st := range statuses {
		if !st.Available {
			// Masked tier: a marker no occupancy bucket can produce, so an
			// availability flip always changes the stamp and retires every
			// cached schema.
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
