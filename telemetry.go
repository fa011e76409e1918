package hcompress

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"

	"hcompress/internal/analyzer"
	"hcompress/internal/codec"
	"hcompress/internal/core"
	"hcompress/internal/manager"
	"hcompress/internal/monitor"
	"hcompress/internal/telemetry"
)

// This file is the client-side face of the telemetry subsystem
// (internal/telemetry): the public snapshot types, the per-operation
// trace spans and HCDP decision-audit records, and the Prometheus/expvar
// HTTP exposition. Everything here is inert unless the Config enabled
// telemetry — the registry, sink, and instrument handles are nil and
// every call site takes the nil fast path.

// TraceSpan is one node of one operation's span tree in the JSONL trace
// export. Every op emits a root span (stage "op") and children for each
// pipeline stage; fan-out sub-tasks additionally get per-sub-task
// queue/codec/retry/io leaves, so the whole latency anatomy of a
// request is reconstructible from its trace ID. Timestamps are
// virtual-clock seconds (the modeled timeline), never wall clocks, so a
// serial workload exports byte-identical traces regardless of the
// Parallelism setting.
//
// Span IDs are 1-based and assigned in emission order within the op;
// Parent is 0 on the root. The invariant tests pin: the codec, retry,
// and io leaf widths of a tree sum exactly to the root's width (queue
// leaves overlap them — they measure serial wait, not extra work; the
// analyze and plan stages are zero-width on the virtual timeline).
type TraceSpan struct {
	Record string `json:"record"`           // always "span"
	Trace  string `json:"trace,omitempty"`  // request/trace ID (propagated or shard-assigned)
	Span   int    `json:"span,omitempty"`   // span ID within the op, root = 1
	Parent int    `json:"parent,omitempty"` // parent span ID, 0 on the root
	Tenant string `json:"tenant,omitempty"` // from the service layer, when present
	Class  string `json:"class,omitempty"`  // scheduling class: "interactive" | "batch"
	Op     string `json:"op"`               // "compress" | "decompress"
	Key    string `json:"key"`
	// Stage is "op" (root) | "analyze" | "plan" | "replan" | "execute"
	// | "queue" | "codec" | "retry" | "io" | "cache" (a read served from
	// the decompressed-block cache: one zero-width leaf, no execute span
	// — the op never reached the store or the codec).
	Stage  string  `json:"stage"`
	Sub    int     `json:"sub,omitempty"` // 1-based sub-task index on queue/codec/retry/io leaves
	VStart float64 `json:"vstart"`
	VEnd   float64 `json:"vend"`
	// Analyze attributes.
	DataType     string `json:"type,omitempty"`
	Distribution string `json:"dist,omitempty"`
	Bytes        int64  `json:"bytes,omitempty"`
	// Plan attributes.
	SubTasks    int     `json:"subtasks,omitempty"`
	PredSeconds float64 `json:"predSecs,omitempty"`
	// Execute/io attributes (virtual-time anatomy).
	CodecSeconds float64 `json:"codecSecs,omitempty"`
	IOSeconds    float64 `json:"ioSecs,omitempty"`
	StoredBytes  int64   `json:"storedBytes,omitempty"`
	Tier         string  `json:"tier,omitempty"`        // io leaves: the tier that served the I/O
	PlannedTier  string  `json:"plannedTier,omitempty"` // io leaves: set only when the placement spilled
	Retries      int     `json:"retries,omitempty"`     // retry leaves: attempts absorbed
}

// jsonField starts one field inside an under-construction JSON object:
// a comma unless this is the first field, then the quoted key and colon.
// Keys are compile-time literals, never escaped.
func jsonField(dst []byte, key string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	dst = append(dst, '"')
	dst = append(dst, key...)
	return append(dst, '"', ':')
}

// AppendJSON encodes the span exactly as encoding/json would, field
// order and omitempty semantics included — the telemetry package's
// appender fast path that keeps per-operation tracing off the
// reflection walk.
func (s TraceSpan) AppendJSON(dst []byte) []byte { return s.appendJSON(dst, nil) }

// appendJSON is AppendJSON with the floats going through fm (nil formats
// each one afresh).
func (s *TraceSpan) appendJSON(dst []byte, fm *telemetry.FloatMemo) []byte {
	dst = append(dst, '{')
	dst = telemetry.AppendJSONString(jsonField(dst, "record"), s.Record)
	if s.Trace != "" {
		dst = telemetry.AppendJSONString(jsonField(dst, "trace"), s.Trace)
	}
	if s.Span != 0 {
		dst = telemetry.AppendJSONInt(jsonField(dst, "span"), int64(s.Span))
	}
	if s.Parent != 0 {
		dst = telemetry.AppendJSONInt(jsonField(dst, "parent"), int64(s.Parent))
	}
	if s.Tenant != "" {
		dst = telemetry.AppendJSONString(jsonField(dst, "tenant"), s.Tenant)
	}
	if s.Class != "" {
		dst = telemetry.AppendJSONString(jsonField(dst, "class"), s.Class)
	}
	dst = telemetry.AppendJSONString(jsonField(dst, "op"), s.Op)
	dst = telemetry.AppendJSONString(jsonField(dst, "key"), s.Key)
	dst = telemetry.AppendJSONString(jsonField(dst, "stage"), s.Stage)
	if s.Sub != 0 {
		dst = telemetry.AppendJSONInt(jsonField(dst, "sub"), int64(s.Sub))
	}
	dst = fm.Append(jsonField(dst, "vstart"), s.VStart)
	dst = fm.Append(jsonField(dst, "vend"), s.VEnd)
	if s.DataType != "" {
		dst = telemetry.AppendJSONString(jsonField(dst, "type"), s.DataType)
	}
	if s.Distribution != "" {
		dst = telemetry.AppendJSONString(jsonField(dst, "dist"), s.Distribution)
	}
	if s.Bytes != 0 {
		dst = telemetry.AppendJSONInt(jsonField(dst, "bytes"), s.Bytes)
	}
	if s.SubTasks != 0 {
		dst = telemetry.AppendJSONInt(jsonField(dst, "subtasks"), int64(s.SubTasks))
	}
	if s.PredSeconds != 0 {
		dst = fm.Append(jsonField(dst, "predSecs"), s.PredSeconds)
	}
	if s.CodecSeconds != 0 {
		dst = fm.Append(jsonField(dst, "codecSecs"), s.CodecSeconds)
	}
	if s.IOSeconds != 0 {
		dst = fm.Append(jsonField(dst, "ioSecs"), s.IOSeconds)
	}
	if s.StoredBytes != 0 {
		dst = telemetry.AppendJSONInt(jsonField(dst, "storedBytes"), s.StoredBytes)
	}
	if s.Tier != "" {
		dst = telemetry.AppendJSONString(jsonField(dst, "tier"), s.Tier)
	}
	if s.PlannedTier != "" {
		dst = telemetry.AppendJSONString(jsonField(dst, "plannedTier"), s.PlannedTier)
	}
	if s.Retries != 0 {
		dst = telemetry.AppendJSONInt(jsonField(dst, "retries"), int64(s.Retries))
	}
	return append(dst, '}')
}

// AuditRecord captures one HCDP decision and its outcome: the (codec,
// tier) pair the engine chose for a sub-task, the predicted compressed
// size and modeled duration behind that choice, and — after execution —
// the observed actuals with relative errors. This is the per-decision
// data behind the paper's prediction-accuracy (R²) claim.
type AuditRecord struct {
	Record string `json:"record"` // always "audit"
	Key    string `json:"key"`
	Sub    int    `json:"sub"` // sub-task index within the schema
	// The decision.
	PlannedTier string `json:"plannedTier"`
	Tier        string `json:"tier"` // actual tier (differs on spill)
	Codec       string `json:"codec"`
	// Predicted vs actual.
	OrigBytes    int64   `json:"origBytes"`
	PredBytes    int64   `json:"predBytes"`
	StoredBytes  int64   `json:"storedBytes"`
	PredSeconds  float64 `json:"predSecs"`
	CodecSeconds float64 `json:"codecSecs"`
	IOSeconds    float64 `json:"ioSecs"`
	// SizeErr is (stored-predicted)/predicted; TimeErr is
	// (actual-predicted)/predicted over the sub-task's total modeled
	// duration. Zero predictions yield zero errors.
	SizeErr float64 `json:"sizeErr"`
	TimeErr float64 `json:"timeErr"`
}

// AppendJSON encodes the audit record exactly as encoding/json would —
// the telemetry package's appender fast path (every field is
// unconditional, so this is a straight field walk).
func (a AuditRecord) AppendJSON(dst []byte) []byte { return a.appendJSON(dst, nil) }

func (a *AuditRecord) appendJSON(dst []byte, fm *telemetry.FloatMemo) []byte {
	dst = append(dst, '{')
	dst = telemetry.AppendJSONString(jsonField(dst, "record"), a.Record)
	dst = telemetry.AppendJSONString(jsonField(dst, "key"), a.Key)
	dst = telemetry.AppendJSONInt(jsonField(dst, "sub"), int64(a.Sub))
	dst = telemetry.AppendJSONString(jsonField(dst, "plannedTier"), a.PlannedTier)
	dst = telemetry.AppendJSONString(jsonField(dst, "tier"), a.Tier)
	dst = telemetry.AppendJSONString(jsonField(dst, "codec"), a.Codec)
	dst = telemetry.AppendJSONInt(jsonField(dst, "origBytes"), a.OrigBytes)
	dst = telemetry.AppendJSONInt(jsonField(dst, "predBytes"), a.PredBytes)
	dst = telemetry.AppendJSONInt(jsonField(dst, "storedBytes"), a.StoredBytes)
	dst = fm.Append(jsonField(dst, "predSecs"), a.PredSeconds)
	dst = fm.Append(jsonField(dst, "codecSecs"), a.CodecSeconds)
	dst = fm.Append(jsonField(dst, "ioSecs"), a.IOSeconds)
	dst = fm.Append(jsonField(dst, "sizeErr"), a.SizeErr)
	dst = fm.Append(jsonField(dst, "timeErr"), a.TimeErr)
	return append(dst, '}')
}

// HistogramStat summarizes one histogram series in a MetricsSnapshot:
// Count, Sum and the P50/P90/P99 quantile estimates.
type HistogramStat = telemetry.HistogramStat

// MetricsSnapshot is the typed dump of every metric series — Counters,
// Gauges and Histograms maps keyed by the canonical Prometheus series
// name (`name{label="value"}`). It is the test-friendly face of the
// registry; the same data is served in Prometheus text format on
// MetricsAddr and by Client.WriteMetrics.
type MetricsSnapshot = telemetry.Snapshot

// Snapshot captures the current value of every metric. With telemetry
// off it returns empty (non-nil) maps.
func (c *Shard) Snapshot() MetricsSnapshot { return c.tel.Snapshot() }

// WriteMetrics renders the Prometheus text-format exposition to w — the
// same bytes MetricsAddr serves on /metrics. A no-op with telemetry off.
func (c *Shard) WriteMetrics(w io.Writer) error {
	return c.tel.WritePrometheus(w)
}

// Audits drains the in-memory decision-audit ring: every HCDP choice
// recorded since the previous call, oldest first. Empty with telemetry
// off. The ring holds Config.AuditLogSize records (default 1024);
// overflow drops the oldest.
func (c *Shard) Audits() []AuditRecord {
	return c.audit.drain()
}

// FaultEvent records one tier health transition in the JSONL trace
// export and the in-memory ring: which tier moved between "healthy",
// "degraded", and "offline", when on the virtual timeline, and the
// error streak that drove it.
type FaultEvent struct {
	Record string  `json:"record"` // always "fault"
	Tier   string  `json:"tier"`
	From   string  `json:"from"`
	To     string  `json:"to"`
	VTime  float64 `json:"vtime"`
	Streak int     `json:"streak,omitempty"`
}

// FaultEvents drains the in-memory health-transition ring: every tier
// state change recorded since the previous call, oldest first. Unlike
// the metrics registry this ring is always on — fault visibility must
// not depend on telemetry being enabled.
func (c *Shard) FaultEvents() []FaultEvent {
	return c.faults.drain()
}

// onHealthEvent is the monitor's event sink: every health transition
// lands in the always-on ring and, when tracing, the JSONL sink.
func (c *Shard) onHealthEvent(ev monitor.Event) {
	fe := FaultEvent{
		Record: "fault",
		Tier:   ev.Name,
		From:   ev.From.String(),
		To:     ev.To.String(),
		VTime:  ev.VTime,
		Streak: ev.Streak,
	}
	c.faults.append(fe)
	if c.cache != nil {
		// A health flip changes the store's shape under the cache —
		// reads now replan around the transitioned tier — so the only
		// safe cache is an empty one. Pending fills are revoked too.
		c.cache.InvalidateAll()
	}
	c.sink.Emit(fe)
}

// SlowOpRecord is one sampled or threshold-crossing operation in the
// slow-op log: the full per-stage latency breakdown (analyze/plan in
// wall seconds; codec/io/retry in virtual seconds, io net of backoff)
// plus the HCDP audit records behind the op's placement. Records live
// in a bounded in-memory ring (Client.SlowOps, hctool -slow); they are
// not written to the trace sink because wall latencies would break the
// byte-identical replay contract.
type SlowOpRecord struct {
	Record         string        `json:"record"` // always "slowop"
	Trace          string        `json:"trace,omitempty"`
	Tenant         string        `json:"tenant,omitempty"`
	Class          string        `json:"class,omitempty"`
	Op             string        `json:"op"`
	Key            string        `json:"key"`
	WallSeconds    float64       `json:"wallSecs"`
	VirtualSeconds float64       `json:"virtualSecs"`
	AnalyzeSeconds float64       `json:"analyzeSecs,omitempty"` // wall
	PlanSeconds    float64       `json:"planSecs,omitempty"`    // wall
	CodecSeconds   float64       `json:"codecSecs"`             // virtual
	IOSeconds      float64       `json:"ioSecs"`                // virtual, net of retry backoff
	RetrySeconds   float64       `json:"retrySecs,omitempty"`   // virtual backoff
	Retries        int           `json:"retries,omitempty"`
	Replanned      bool          `json:"replanned,omitempty"`
	Degraded       bool          `json:"degraded,omitempty"`
	Audits         []AuditRecord `json:"audits,omitempty"`
}

// slowLog is the bounded slow-op ring with its threshold-or-sampled
// admission policy. nil (no policy configured) admits nothing.
type slowLog struct {
	thresh float64 // wall seconds; 0 disables the threshold arm
	every  uint64  // record every Nth op; 0 disables the sampling arm
	seq    atomic.Uint64
	ring   ring[SlowOpRecord]
}

// shouldRecord rules on one completed op. The sampling counter advances
// on every call so "every Nth op" means Nth completed, not Nth slow.
func (s *slowLog) shouldRecord(wallSecs float64) bool {
	if s == nil {
		return false
	}
	n := s.seq.Add(1)
	if s.thresh > 0 && wallSecs >= s.thresh {
		return true
	}
	return s.every > 0 && n%s.every == 0
}

// SlowOps drains the slow-op ring: every threshold-crossing or sampled
// operation recorded since the previous call, oldest first. Empty
// unless Config.SlowOpThreshold or Config.SlowOpSampleEvery is set.
func (c *Shard) SlowOps() []SlowOpRecord {
	if c.slow == nil {
		return nil
	}
	return c.slow.ring.drain()
}

// slowOp assembles and records one slow-op entry from an executed op's
// Result and stage timings. Callers gate on slow.shouldRecord first.
func (c *Shard) slowOp(ri telemetry.ReqInfo, op, key string, res manager.Result, wallSecs, analyzeSecs, planSecs float64, replanned, degraded bool, audits []AuditRecord) {
	c.slow.ring.append(SlowOpRecord{
		Record:         "slowop",
		Trace:          ri.ID,
		Tenant:         ri.Tenant,
		Class:          ri.Class,
		Op:             op,
		Key:            key,
		WallSeconds:    wallSecs,
		VirtualSeconds: res.CodecTime + res.IOTime,
		AnalyzeSeconds: analyzeSecs,
		PlanSeconds:    planSecs,
		CodecSeconds:   res.CodecTime,
		IOSeconds:      res.IOTime - res.RetrySecs,
		RetrySeconds:   res.RetrySecs,
		Retries:        res.Retries,
		Replanned:      replanned,
		Degraded:       degraded,
		Audits:         audits,
	})
}

// clientMetrics are the client-level instruments (nil when off).
type clientMetrics struct {
	opSeconds  map[string]*telemetry.Histogram // wall latency by op
	ops        map[string]*telemetry.Counter
	opErrs     map[string]*telemetry.Counter
	sizeRelErr *telemetry.Histogram // |stored-predicted|/predicted per sub-task
	timeRelErr *telemetry.Histogram
	replans    *telemetry.Counter
	// degradedWrites counts writes that fell back to uncompressed
	// storage after every compressing schema proved infeasible.
	degradedWrites *telemetry.Counter

	batchTasks    *telemetry.Histogram // tasks per batch call
	demoteSlices  *telemetry.Counter   // demotion slices executed
	demoteBytes   *telemetry.Counter   // bytes moved down by the demoter
	demoteSeconds *telemetry.Histogram // wall pause per demotion slice

	// stageSeconds is the latency-attribution family
	// hc_stage_seconds{stage=...}: analyze and plan observe wall seconds
	// at the shard, codec/io/retry observe per-op virtual seconds from
	// the manager's Result (io net of retry backoff). The queue stage of
	// the same family is registered and observed in the manager, at the
	// fanout wait site.
	stageAnalyze *telemetry.Histogram
	stagePlan    *telemetry.Histogram
	stageCodec   *telemetry.Histogram
	stageIO      *telemetry.Histogram
	stageRetry   *telemetry.Histogram
}

// observeStages folds one executed op's Result into the attribution
// histograms. All instruments no-op on nil, so this is free when
// telemetry is off.
func (cm *clientMetrics) observeStages(res manager.Result) {
	cm.stageCodec.Observe(res.CodecTime)
	cm.stageIO.Observe(res.IOTime - res.RetrySecs)
	cm.stageRetry.Observe(res.RetrySecs)
}

func newClientMetrics(reg *telemetry.Registry) clientMetrics {
	if reg == nil {
		return clientMetrics{}
	}
	cm := clientMetrics{
		opSeconds:      make(map[string]*telemetry.Histogram, 3),
		ops:            make(map[string]*telemetry.Counter, 3),
		opErrs:         make(map[string]*telemetry.Counter, 3),
		sizeRelErr:     reg.Histogram("hc_hcdp_size_relerr", "per-sub-task |stored-predicted|/predicted size error", telemetry.RelErrBuckets),
		timeRelErr:     reg.Histogram("hc_hcdp_time_relerr", "per-sub-task |actual-predicted|/predicted duration error", telemetry.RelErrBuckets),
		replans:        reg.Counter("hc_client_replans_total", "writes that replanned after a stale-capacity failure"),
		degradedWrites: reg.Counter("hc_degraded_writes_total", "writes stored uncompressed after every compressing schema failed"),

		batchTasks:    reg.Histogram("hc_client_batch_tasks", "tasks per CompressBatch/DecompressBatch call", telemetry.DepthBuckets),
		demoteSlices:  reg.Counter("hc_demoter_slices_total", "bounded demotion slices executed by the background demoter"),
		demoteBytes:   reg.Counter("hc_demoter_bytes_total", "bytes the background demoter moved down the hierarchy"),
		demoteSeconds: reg.Histogram("hc_demoter_slice_seconds", "wall-clock pause injected by one demotion slice", telemetry.SecondsBuckets),
	}
	for _, op := range []string{"compress", "decompress", "delete", "compress_batch", "decompress_batch"} {
		l := telemetry.L("op", op)
		cm.opSeconds[op] = reg.Histogram("hc_client_op_seconds", "wall-clock operation latency", telemetry.SecondsBuckets, l)
		cm.ops[op] = reg.Counter("hc_client_ops_total", "operations completed", l)
		cm.opErrs[op] = reg.Counter("hc_client_op_errors_total", "operations failed", l)
	}
	stage := func(name string) *telemetry.Histogram {
		return reg.Histogram("hc_stage_seconds", "per-stage latency attribution",
			telemetry.SecondsBuckets, telemetry.L("stage", name))
	}
	cm.stageAnalyze = stage("analyze")
	cm.stagePlan = stage("plan")
	cm.stageCodec = stage("codec")
	cm.stageIO = stage("io")
	cm.stageRetry = stage("retry")
	return cm
}

// traceLines encodes one op's trace records as JSON lines, straight into
// the buffer the sink lends out — no span slice is built first — sharing
// one FloatMemo so each distinct timestamp and duration of the op is
// formatted once.
type traceLines struct {
	buf []byte
	fm  telemetry.FloatMemo
}

func (l *traceLines) span(s *TraceSpan)    { l.buf = append(s.appendJSON(l.buf, &l.fm), '\n') }
func (l *traceLines) audit(a *AuditRecord) { l.buf = append(a.appendJSON(l.buf, &l.fm), '\n') }

// spanTree encodes one op's span tree into l in deterministic emission
// order: root, any zero-width marker children (analyze/plan/replan on
// writes), the execute span, then per sub-task leaves replaying the
// serial virtual timeline. Writes replay codec→retry→io per sub-task;
// reads retry→io→codec, mirroring the manager's placeTask/replayRead
// exactly — so the leaf widths reconstruct End-start to fp rounding.
func (c *Shard) spanTree(l *traceLines, ri telemetry.ReqInfo, op, key string, res manager.Result, start float64, write bool, markers []TraceSpan) {
	next := 0
	add := func(s TraceSpan) int {
		next++
		s.Record, s.Span = "span", next
		s.Trace, s.Tenant, s.Class = ri.ID, ri.Tenant, ri.Class
		s.Op, s.Key = op, key
		l.span(&s)
		return next
	}
	root := add(TraceSpan{Stage: "op", VStart: start, VEnd: res.End,
		CodecSeconds: res.CodecTime, IOSeconds: res.IOTime, StoredBytes: res.Stored})
	for _, m := range markers {
		m.Parent = root
		add(m)
	}
	exec := add(TraceSpan{Stage: "execute", Parent: root, VStart: start, VEnd: res.End})
	t := start
	for k, sr := range res.SubResults {
		sub := k + 1
		add(TraceSpan{Stage: "queue", Parent: exec, Sub: sub, VStart: start, VEnd: t})
		codecSpan := TraceSpan{Stage: "codec", Parent: exec, Sub: sub, CodecSeconds: sr.CodecTime}
		retrySpan := TraceSpan{Stage: "retry", Parent: exec, Sub: sub, Retries: sr.Retries}
		ioSpan := TraceSpan{Stage: "io", Parent: exec, Sub: sub,
			IOSeconds: sr.IOTime - sr.RetrySecs, StoredBytes: sr.Stored,
			Tier: c.hier.Tiers[sr.Tier].Name}
		if sr.PlannedTier != sr.Tier {
			ioSpan.PlannedTier = c.hier.Tiers[sr.PlannedTier].Name
		}
		place := func(s *TraceSpan, width float64) {
			s.VStart, s.VEnd = t, t+width
			t += width
		}
		if write {
			place(&codecSpan, sr.CodecTime)
			place(&retrySpan, sr.RetrySecs)
			place(&ioSpan, sr.IOTime-sr.RetrySecs)
			add(codecSpan)
			if sr.Retries > 0 {
				add(retrySpan)
			}
			add(ioSpan)
		} else {
			place(&retrySpan, sr.RetrySecs)
			place(&ioSpan, sr.IOTime-sr.RetrySecs)
			place(&codecSpan, sr.CodecTime)
			if sr.Retries > 0 {
				add(retrySpan)
			}
			add(ioSpan)
			add(codecSpan)
		}
	}
}

// compressTrace builds the span tree and audit records for one executed
// write and hands them to the ring and the sink as one contiguous batch.
// replanned marks writes that went through the stale-capacity
// refresh+replan path; they get a zero-width "replan" marker span.
func (c *Shard) compressTrace(ri telemetry.ReqInfo, key string, attr analyzer.Result, size int64, schema core.Schema, res manager.Result, start float64, replanned bool) []AuditRecord {
	audits := make([]AuditRecord, 0, len(res.SubResults))
	for k, sr := range res.SubResults {
		rec := AuditRecord{
			Record:       "audit",
			Key:          key,
			Sub:          k,
			PlannedTier:  c.hier.Tiers[sr.PlannedTier].Name,
			Tier:         c.hier.Tiers[sr.Tier].Name,
			Codec:        codecName(sr.Codec),
			OrigBytes:    sr.OrigLen,
			PredBytes:    sr.PredStored,
			StoredBytes:  sr.Stored,
			PredSeconds:  sr.PredTime,
			CodecSeconds: sr.CodecTime,
			IOSeconds:    sr.IOTime,
		}
		if sr.PredStored > 0 {
			rec.SizeErr = float64(sr.Stored-sr.PredStored) / float64(sr.PredStored)
			c.cm.sizeRelErr.Observe(abs(rec.SizeErr))
		}
		if sr.PredTime > 0 {
			rec.TimeErr = (sr.CodecTime + sr.IOTime - sr.PredTime) / sr.PredTime
			c.cm.timeRelErr.Observe(abs(rec.TimeErr))
		}
		audits = append(audits, rec)
	}
	c.audit.append(audits...)
	if c.sink == nil {
		return audits
	}
	markers := [3]TraceSpan{
		{Stage: "analyze", VStart: start, VEnd: start,
			DataType: attr.Type.String(), Distribution: attr.Dist.String(), Bytes: size},
		{Stage: "plan", VStart: start, VEnd: start,
			SubTasks: len(schema.SubTasks), PredSeconds: schema.PredTime},
		{Stage: "replan", VStart: start, VEnd: start},
	}
	n := 2
	if replanned {
		n = 3
	}
	c.sink.EmitBatch(func(buf []byte) []byte {
		l := traceLines{buf: buf}
		c.spanTree(&l, ri, "compress", key, res, start, true, markers[:n])
		for i := range audits {
			l.audit(&audits[i])
		}
		return l.buf
	})
	return audits
}

// decompressTrace emits the read-side span tree (reads have no analyze
// or plan stage and no decision to audit — the write-time schema
// governs; per-sub-task leaves replay retry→io→codec in serial order).
func (c *Shard) decompressTrace(ri telemetry.ReqInfo, key string, res manager.Result, start float64) {
	if c.sink == nil {
		return
	}
	c.sink.EmitBatch(func(buf []byte) []byte {
		l := traceLines{buf: buf}
		c.spanTree(&l, ri, "decompress", key, res, start, false, nil)
		return l.buf
	})
}

func codecName(id codec.ID) string {
	if cdc, err := codec.ByID(id); err == nil {
		return cdc.Name()
	}
	return "?"
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// startMetricsServer binds addr and serves /metrics (the router's merged
// exposition, with hc_goroutines on proc, the registry of the
// process-wide series) and /debug/vars (expvar) until Router.Close.
func (r *Router) startMetricsServer(addr string, proc *telemetry.Registry) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("hcompress: metrics listener: %w", err)
	}
	goroutines := proc.Gauge("hc_goroutines", "goroutines alive in the process at scrape time")
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		// The registry has no callback gauges, so process-level readings
		// are refreshed at scrape time.
		goroutines.Set(float64(runtime.NumGoroutine()))
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteMetrics(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	srv := &http.Server{Handler: mux}
	r.metricsLn = ln
	r.closers = append(r.closers, srv.Close)
	go func() { _ = srv.Serve(ln) }()
	return nil
}

// expvar integration: one process-wide "hcompress" var aggregates the
// snapshot of every live telemetry-enabled router, keyed client0,
// client1, ... in creation order. Publish happens once (expvar panics on
// duplicate names); Close unregisters the router from the aggregate.
var (
	expvarOnce sync.Once
	expvarMu   sync.Mutex
	expvarRegs = make(map[uint64]func() telemetry.Snapshot)
	expvarSeq  uint64
)

func expvarRegister(snapshot func() telemetry.Snapshot) uint64 {
	expvarOnce.Do(func() {
		if expvar.Get("hcompress") != nil {
			return
		}
		expvar.Publish("hcompress", expvar.Func(func() any {
			expvarMu.Lock()
			defer expvarMu.Unlock()
			out := make(map[string]telemetry.Snapshot, len(expvarRegs))
			for id, snap := range expvarRegs {
				out[fmt.Sprintf("client%d", id)] = snap()
			}
			return out
		}))
	})
	expvarMu.Lock()
	defer expvarMu.Unlock()
	expvarSeq++
	expvarRegs[expvarSeq] = snapshot
	return expvarSeq
}

func expvarUnregister(id uint64) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	delete(expvarRegs, id)
}
