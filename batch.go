package hcompress

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hcompress/internal/analyzer"
	"hcompress/internal/bufpool"
	"hcompress/internal/codec"
	"hcompress/internal/core"
	"hcompress/internal/manager"
	"hcompress/internal/readcache"
	"hcompress/internal/telemetry"
)

// This file is the shard's data path: one write pipeline (compress) and
// one read pipeline (decompress), each written once over a per-call slice
// of task records that carry their inputs and outputs in place. Compress
// and Decompress are the same code with one record; a batch only adds
// what a burst can share — one analysis fan-out, one codec fan-out, one
// virtual-clock reading, one predictor feedback flush.

// writeOp is one task's record in a compress call. The manager's half of
// the record — attributes, schema, result — is the WriteReq at the same
// index of the call's request slice.
type writeOp struct {
	Task
	rep *Report
	err error // the task's final outcome; nil once rep is set

	analyzeSecs, planSecs float64 // wall seconds, measured only with telemetry on
	replanned             bool
	degraded              *DegradedError
}

// CompressBatch writes many tasks as one schedule. All tasks are
// analyzed up front (fanned across the shared worker pool), planned
// against one clock reading, and every sub-task of the batch is
// submitted to the pool as a single job — one submission, one virtual-
// clock round-trip, one feedback flush for the whole burst.
//
// Tasks fail independently: the returned slice has one report per task
// in input order, nil where that task failed, and the error joins every
// per-task failure (each naming its task). Virtual timelines start at
// the same clock reading for every task — exactly as the same tasks
// issued concurrently through Compress would — and the clock advances to
// the latest completion.
func (c *Shard) CompressBatch(tasks []Task) ([]*Report, error) {
	return c.CompressBatchContext(context.Background(), tasks)
}

// CompressBatchContext is CompressBatch under a context: cancellation
// fails tasks that have not been placed yet with ctx.Err() (each named
// in the joined error); tasks already placed keep their reports.
func (c *Shard) CompressBatchContext(ctx context.Context, tasks []Task) ([]*Report, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	ops := make([]writeOp, len(tasks))
	for i := range tasks {
		ops[i].Task = tasks[i]
	}
	if err := c.compress(ctx, "compress_batch", ops); err != nil {
		return nil, err
	}
	c.cm.batchTasks.Observe(float64(len(ops)))
	reps := make([]*Report, len(ops))
	errs := make([]error, len(ops))
	for i := range ops {
		reps[i], errs[i] = ops[i].rep, batchErr(i, ops[i].Key, ops[i].err)
	}
	return reps, errors.Join(errs...)
}

// batchErr names the failing task in a batch's joined error.
func batchErr(i int, key string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("hcompress: task %d (%q): %w", i, key, err)
}

// compress is the write pipeline. Stages, each existing exactly once:
// validate → analyze (pure CPU over the callers' buffers, no lock held,
// fanned across the pool) → plan (HCDP engine, one schema per task, all
// against one clock reading) → execute (the manager's single codec
// fan-out and serial replay) → rescue (the replan/degrade ladder, per
// failed task) → invalidate → report → stage/trace/slow-op telemetry.
// Concurrent callers only synchronize on the component each stage
// actually touches.
//
// The returned error is call-level (cancelled before starting, shard
// closed); per-task outcomes land in ops.
func (c *Shard) compress(ctx context.Context, label string, ops []writeOp) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	timed := c.tel != nil
	var wall time.Time
	if timed {
		wall = time.Now()
	}
	reqs := make([]manager.WriteReq, len(ops))
	for i := range ops {
		o, r := &ops[i], &reqs[i]
		switch {
		case o.Key == "":
			o.err = errors.New("hcompress: task key required")
		case len(o.Data) == 0:
			o.err = errors.New("hcompress: empty task data")
		}
		// An invalid task rides along with its error set, which every
		// later stage — and the manager — skips.
		r.Key, r.Data, r.Size, r.Err = o.Key, o.Data, int64(len(o.Data)), o.err
	}

	_ = c.pool.Run(len(ops), func(_ *bufpool.Scratch, i int) error {
		o := &ops[i]
		if o.err != nil {
			return nil
		}
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		reqs[i].Attr = c.attrFor(o.Task)
		if timed {
			o.analyzeSecs = time.Since(t0).Seconds()
		}
		return nil
	})

	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return ErrClosed
	}
	start := c.clock.Now()
	for i := range ops {
		if ops[i].err != nil {
			continue
		}
		if err := c.plan(start, &ops[i], &reqs[i]); err != nil {
			reqs[i].Err = fmt.Errorf("hcompress: planning %q: %w", ops[i].Key, err)
		}
	}
	c.mgr.ExecuteWrites(ctx, start, reqs)

	reps := make([]Report, len(ops)) // the call's reports, one allocation
	maxEnd := start
	var ri telemetry.ReqInfo
	done := 0
	for i := range ops {
		o, r := &ops[i], &reqs[i]
		if o.err == nil && r.Err != nil {
			c.rescue(ctx, start, o, reqs[i:i+1])
			o.err = r.Err
		}
		if o.err != nil {
			c.cm.opErrs[label].Inc()
			continue
		}
		done++
		maxEnd = max(maxEnd, r.Res.End)
		if c.cache != nil {
			// Strict invalidation on overwrite: drop any cached payload for
			// this key and revoke in-flight fills that may carry the old bytes.
			c.cache.Invalidate(o.Key)
		}
		o.rep = &reps[i]
		c.report(o.rep, o.Key, r.Size, r.Attr, r.Res, start)
		o.rep.PredictedSeconds = r.Schema.PredTime
		o.rep.Degraded = o.degraded
		if timed {
			c.cm.stageAnalyze.Observe(o.analyzeSecs)
			c.cm.stagePlan.Observe(o.planSecs)
			c.cm.observeStages(r.Res)
			c.resolveReq(ctx, &ri)
			audits := c.compressTrace(ri, o.Key, r.Attr, r.Size, r.Schema, r.Res, start, o.replanned)
			if wallSecs := time.Since(wall).Seconds(); c.slow.shouldRecord(wallSecs) {
				c.slowOp(ri, "compress", o.Key, r.Res, wallSecs, o.analyzeSecs, o.planSecs, o.replanned, o.degraded != nil, audits)
			}
		}
	}
	c.clock.AdvanceTo(maxEnd)
	if timed && done > 0 {
		c.cm.ops[label].Inc()
		c.cm.opSeconds[label].Observe(time.Since(wall).Seconds())
	}
	return nil
}

// resolveReq fills ri with the identity the call runs under, once, at
// its first completed task: every task of a call shares one propagated
// (or synthesized) trace ID, so a burst is groupable as one request, and
// a call that completes nothing consumes no ID.
func (c *Shard) resolveReq(ctx context.Context, ri *telemetry.ReqInfo) {
	if ri.Class == "" { // reqInfo always names the class
		*ri = c.reqInfo(ctx)
	}
}

// plan asks the HCDP engine for r's schema at virtual time start,
// charging the wall time to the task's plan stage.
func (c *Shard) plan(start float64, o *writeOp, r *manager.WriteReq) error {
	var t0 time.Time
	if c.tel != nil {
		t0 = time.Now()
	}
	schema, err := c.eng.Plan(start, r.Attr, r.Size)
	if c.tel != nil {
		o.planSecs += time.Since(t0).Seconds()
	}
	if err == nil {
		r.Schema = schema
	}
	return err
}

// rescue is the write failure ladder, run for one task whose planned
// path failed, at planning or at execution. First the stale-view repair:
// the monitor's view may have been stale, or a tier just went offline
// and the health machine masked it, so refresh and replan once — the new
// plan cannot target a masked tier. Then, if no compressing schema can
// execute at all (tiers offline, capacity gone), graceful degradation:
// the data must land, so store it as one uncompressed sub-task and let
// the manager's spill chain walk the hierarchy until some healthy tier
// takes it. A degraded write succeeds, with o.degraded explaining why
// the planned path failed. A cancelled context ends the ladder with
// ctx.Err(). req is the task's one-element window of the call's request
// slice; the outcome is left in req[0].
func (c *Shard) rescue(ctx context.Context, start float64, o *writeOp, req []manager.WriteReq) {
	r := &req[0]
	if ctx.Err() == nil {
		c.mon.ForceRefresh()
		c.cm.replans.Inc()
		o.replanned = true
		if err := c.plan(start, o, r); err != nil {
			r.Err = fmt.Errorf("hcompress: replanning %q: %w (after %v)", r.Key, err, r.Err)
		} else {
			r.Err = nil
			c.mgr.ExecuteWrites(ctx, start, req)
			if r.Err == nil {
				return
			}
			r.Err = fmt.Errorf("hcompress: executing %q: %w", r.Key, r.Err)
		}
	}
	if err := ctx.Err(); err != nil {
		r.Err = err
		return
	}
	cause := r.Err // the planned path's failure names the root cause
	r.Schema, r.Err = degradedSchema(r.Size), nil
	c.mgr.ExecuteWrites(ctx, start, req)
	if r.Err != nil {
		r.Err = cause
		return
	}
	o.degraded = &DegradedError{
		Key:   r.Key,
		Tier:  c.hier.Tiers[r.Res.SubResults[0].Tier].Name,
		Cause: cause,
	}
	c.cm.degradedWrites.Inc()
}

// degradedSchema is the last-resort write plan: the whole task as one
// uncompressed sub-task, nominally on the fastest tier — the manager's
// spill chain walks it down to whatever tier actually accepts it.
func degradedSchema(size int64) core.Schema {
	return core.Schema{SubTasks: []core.SubTask{{
		Offset: 0, Length: size, Tier: 0, Codec: codec.None, PredSize: size,
	}}}
}

// readOp is one key's record in a decompress call.
type readOp struct {
	key string
	rep *Report
	err error // the key's final outcome; nil once rep is set

	size int64           // write-time size and analysis, for the report
	attr analyzer.Result //
	fill *readcache.Fill // open cache fill, nil when the key will not cache
	req  int             // index of the key's request in the call's manager requests
}

// DecompressBatch reads many tasks as one schedule: one directory pass
// captures every task's metadata and every sub-task of the batch is
// decompressed through a single pool submission. Like CompressBatch,
// tasks fail independently, reports come back in input order (nil on
// failure), and all timelines start at the same clock reading.
func (c *Shard) DecompressBatch(keys []string) ([]*Report, error) {
	return c.DecompressBatchContext(context.Background(), keys)
}

// DecompressBatchContext is DecompressBatch under a context:
// cancellation fails unfinished reads with ctx.Err() (each named in the
// joined error) and releases every pinned payload.
func (c *Shard) DecompressBatchContext(ctx context.Context, keys []string) ([]*Report, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	ops := make([]readOp, len(keys))
	for i := range keys {
		ops[i].key = keys[i]
	}
	if err := c.decompress(ctx, "decompress_batch", ops); err != nil {
		return nil, err
	}
	c.cm.batchTasks.Observe(float64(len(ops)))
	reps := make([]*Report, len(ops))
	errs := make([]error, len(ops))
	for i := range ops {
		reps[i], errs[i] = ops[i].rep, batchErr(i, ops[i].key, ops[i].err)
	}
	return reps, errors.Join(errs...)
}

// decompress is the read pipeline. Stages, each existing exactly once:
// cache (a hit is a complete operation that never reaches the manager,
// so a fully warm call performs no store work at all) → resolve (the
// write-time size and analysis, and the cache fill token, per miss) →
// execute (the manager's single directory pass, decompression fan-out
// and serial replay over the misses) → commit/abort the fills → report →
// stage/trace/slow-op telemetry.
//
// The returned error is call-level (cancelled before starting, shard
// closed); per-key outcomes land in ops.
func (c *Shard) decompress(ctx context.Context, label string, ops []readOp) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	timed := c.tel != nil
	var wall time.Time
	if timed {
		wall = time.Now()
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return ErrClosed
	}
	var ri telemetry.ReqInfo
	misses := len(ops)
	if c.cache != nil {
		for i := range ops {
			o := &ops[i]
			rep, meta, ok := c.cacheGet(o.key)
			if !ok {
				continue
			}
			o.rep = rep
			misses--
			if timed {
				c.resolveReq(ctx, &ri)
				c.cacheHitTrace(ri, o.key, meta)
				if wallSecs := time.Since(wall).Seconds(); c.slow.shouldRecord(wallSecs) {
					// Zero virtual anatomy: a hit is off the modeled timeline.
					c.slowOp(ri, "decompress", o.key, manager.Result{Stored: meta.Stored}, wallSecs, 0, 0, false, false, nil)
				}
			}
		}
	}

	var reqs []manager.ReadReq
	if misses > 0 {
		reqs = make([]manager.ReadReq, 0, misses)
	}
	for i := range ops {
		o := &ops[i]
		if o.rep != nil {
			continue
		}
		var ok bool
		if o.size, o.attr, ok = c.mgr.TaskInfo(o.key); !ok {
			o.err = fmt.Errorf("hcompress: unknown task %q: %w", o.key, ErrNotFound)
			continue
		}
		// Open the fill before touching the store: a concurrent overwrite or
		// delete then lands after the token exists and aborts it, so bytes
		// read from the pre-overwrite world can never enter the cache.
		if c.cache != nil {
			o.fill = c.cache.BeginFill(o.key)
		}
		o.req = len(reqs)
		reqs = append(reqs, manager.ReadReq{Key: o.key})
	}
	start := c.clock.Now()
	if len(reqs) > 0 {
		c.mgr.ExecuteReads(ctx, start, reqs)
	}

	maxEnd := start
	done := len(ops) - misses
	for i := range ops {
		o := &ops[i]
		if o.rep != nil {
			continue // served from the cache above
		}
		if o.err == nil {
			o.err = reqs[o.req].Err
			if o.err != nil && o.fill != nil {
				c.cache.Abort(o.fill, false)
			}
		}
		if o.err != nil {
			c.cm.opErrs[label].Inc()
			continue
		}
		done++
		res := reqs[o.req].Res
		maxEnd = max(maxEnd, res.End)
		o.rep = new(Report)
		c.report(o.rep, o.key, o.size, o.attr, res, start)
		o.rep.Data = res.Data
		if o.fill != nil {
			// Zero-copy admission: the cache and the report share the buffer
			// under one refcount; the report's pin comes back as release.
			if release, ok := c.cache.Commit(o.fill, res.Data, readcache.Meta{
				Size: o.size, Stored: res.Stored,
				DataType: o.rep.DataType, Distribution: o.rep.Distribution,
			}); ok {
				o.rep.release = release
			}
		}
		if timed {
			c.cm.observeStages(res)
			c.resolveReq(ctx, &ri)
			c.decompressTrace(ri, o.key, res, start)
			if wallSecs := time.Since(wall).Seconds(); c.slow.shouldRecord(wallSecs) {
				c.slowOp(ri, "decompress", o.key, res, wallSecs, 0, 0, false, false, nil)
			}
		}
	}
	c.clock.AdvanceTo(maxEnd)
	if timed && done > 0 {
		c.cm.ops[label].Inc()
		c.cm.opSeconds[label].Observe(time.Since(wall).Seconds())
	}
	return nil
}
