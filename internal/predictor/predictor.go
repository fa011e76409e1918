// Package predictor implements the Compression Cost Predictor (CCP):
// per-codec linear regression models over data attributes that estimate
// the Expected Compression Cost 3-tuple (compression speed, decompression
// speed, ratio), bootstrapped from the profiler's JSON seed and refined at
// runtime through a reinforcement-learning feedback loop (§IV-D).
//
// The feedback loop is batched: compressors report actual costs after
// every operation, but the models only absorb them every n operations
// (n is the seed's feedback_interval), matching the paper's design.
package predictor

import (
	"math"
	"sync"

	"hcompress/internal/seed"
	"hcompress/internal/stats"
	"hcompress/internal/telemetry"
)

// predTarget indexes the three predicted quantities.
type predTarget int

const (
	targetCompress predTarget = iota
	targetDecompress
	targetRatio
	numTargets
)

// The design is the saturated (type x dist) interaction: 15 cell dummies
// plus the model intercept for the (binary, uniform) baseline cell. An
// additive main-effects model cannot represent per-cell costs exactly
// (compressibility does not decompose into type + distribution effects),
// which systematically biased baseline-cell predictions; the saturated
// design fits every profiled cell while remaining a linear model the RLS
// feedback can update.
const numFeatures = 15

func features(dt stats.DataType, dist stats.Dist) []float64 {
	f := make([]float64, numFeatures)
	cell := int(dt)*4 + int(dist)
	if cell > 0 && cell <= numFeatures {
		f[cell-1] = 1
	}
	return f
}

type modelKey struct {
	codec  string
	target predTarget
}

type observation struct {
	dt     stats.DataType
	dist   stats.Dist
	codec  string
	actual seed.CodecCost
	run    []seed.CodecCost // batched feedback: a run of same-cell costs (actual unused)
}

// CCP is the predictor. Safe for concurrent use.
type CCP struct {
	mu        sync.Mutex
	models    map[modelKey]*stats.RLS
	interval  int
	pending   []observation
	pendingN  int // observations queued (runs count their length)
	feedbacks int // total observations absorbed
	queued    int // total observations received

	// Telemetry (nil when off). relErr histograms are created lazily per
	// (codec, target) under mu; lookups on the feedback path are batched
	// by the interval so the map access is off the per-op hot path.
	reg        *telemetry.Registry
	relErr     map[modelKey]*telemetry.Histogram
	tmQueued   *telemetry.Counter
	tmAbsorbed *telemetry.Counter
	tmPending  *telemetry.Gauge
	tmBatch    *telemetry.Histogram
}

// SetTelemetry registers the CCP's instruments on reg: feedback queue
// depth and absorption counters, flush batch sizes (the feedback lag in
// operations), and per-codec prediction relative-error histograms.
// Must be called before the CCP is shared between goroutines; a nil
// registry leaves telemetry off.
func (c *CCP) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.reg = reg
	c.relErr = make(map[modelKey]*telemetry.Histogram)
	c.tmQueued = reg.Counter("hc_ccp_feedback_queued_total", "actual-cost observations received")
	c.tmAbsorbed = reg.Counter("hc_ccp_feedback_absorbed_total", "observations folded into the models")
	c.tmPending = reg.Gauge("hc_ccp_feedback_pending", "observations waiting for the next batched model update")
	c.tmBatch = reg.Histogram("hc_ccp_feedback_batch_ops", "operations per feedback flush (the model-update lag)", telemetry.DepthBuckets)
}

var targetNames = [...]string{"compress", "decompress", "ratio"}

// observeRelErr records |predicted-actual|/actual for one target before
// the observation is folded in — the one-step-ahead error behind the
// paper's accuracy (R2) claim, sliced per codec and target. Callers must
// hold c.mu.
func (c *CCP) observeRelErr(k modelKey, f []float64, actual float64) {
	if c.reg == nil || actual <= 0 {
		return
	}
	m, ok := c.models[k]
	if !ok || m.Seen() == 0 {
		return // first observation: no prediction existed to grade
	}
	h, ok := c.relErr[k]
	if !ok {
		h = c.reg.Histogram("hc_ccp_pred_relerr", "one-step-ahead relative prediction error",
			telemetry.RelErrBuckets,
			telemetry.L("codec", k.codec), telemetry.L("target", targetNames[k.target]))
		c.relErr[k] = h
	}
	h.Observe(math.Abs(m.Predict(f)-actual) / actual)
}

// New builds a CCP from a seed: every table entry is folded into the
// regression models as an observation (the "initial seed" bootstrap).
func New(s *seed.Seed) *CCP {
	c := &CCP{
		models:   make(map[modelKey]*stats.RLS),
		interval: s.FeedbackInterval,
	}
	if c.interval <= 0 {
		c.interval = seed.DefaultFeedbackInterval
	}
	for _, dt := range stats.AllTypes() {
		for _, dist := range stats.AllDists() {
			for _, name := range s.CodecNames() {
				if cost, ok := s.Costs[seed.Key(dt, dist, name)]; ok && cost.Valid() {
					c.absorb(observation{dt: dt, dist: dist, codec: name, actual: cost})
				}
			}
		}
	}
	// Seed-derived residuals should not count against runtime accuracy.
	for _, m := range c.models {
		m.ResetAccuracy()
	}
	return c
}

func (c *CCP) model(name string, t predTarget) *stats.RLS {
	k := modelKey{name, t}
	m, ok := c.models[k]
	if !ok {
		// Slight forgetting lets the model track workload drift — the
		// "reinforcement" part of the loop.
		m = stats.NewRLS(numFeatures, 0.995)
		c.models[k] = m
	}
	return m
}

// absorb folds one observation into the models. Partial tuples are
// allowed: a write-path feedback knows compression speed and ratio but not
// decompression speed (that arrives with the read), so non-positive
// components are skipped.
func (c *CCP) absorb(o observation) {
	f := features(o.dt, o.dist)
	if o.actual.CompressMBps > 0 {
		c.observeRelErr(modelKey{o.codec, targetCompress}, f, o.actual.CompressMBps)
		c.model(o.codec, targetCompress).Observe(f, o.actual.CompressMBps)
	}
	if o.actual.DecompressMBps > 0 {
		c.observeRelErr(modelKey{o.codec, targetDecompress}, f, o.actual.DecompressMBps)
		c.model(o.codec, targetDecompress).Observe(f, o.actual.DecompressMBps)
	}
	if o.actual.Ratio >= 1 {
		c.observeRelErr(modelKey{o.codec, targetRatio}, f, o.actual.Ratio)
		c.model(o.codec, targetRatio).Observe(f, o.actual.Ratio)
	}
	c.feedbacks++
	c.tmAbsorbed.Inc()
}

// Predict returns the ECC for a (type, dist, codec) combination. ok is
// false when the codec has never been seen (no seed entry, no feedback).
func (c *CCP) Predict(dt stats.DataType, dist stats.Dist, codecName string) (seed.CodecCost, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	mc, ok := c.models[modelKey{codecName, targetCompress}]
	if !ok || mc.Seen() == 0 {
		return seed.CodecCost{}, false
	}
	f := features(dt, dist)
	cost := seed.CodecCost{
		CompressMBps:   clamp(mc.Predict(f), 0.1, 1e6),
		DecompressMBps: 0.1,
		Ratio:          1,
	}
	if md, ok := c.models[modelKey{codecName, targetDecompress}]; ok {
		cost.DecompressMBps = clamp(md.Predict(f), 0.1, 1e6)
	}
	if mr, ok := c.models[modelKey{codecName, targetRatio}]; ok {
		cost.Ratio = clamp(mr.Predict(f), 1, 1e4)
	}
	return cost, true
}

// Feedback queues an actual measured cost. Models update only when the
// batch reaches the configured interval.
func (c *CCP) Feedback(dt stats.DataType, dist stats.Dist, codecName string, actual seed.CodecCost) {
	if actual.CompressMBps <= 0 && actual.DecompressMBps <= 0 && actual.Ratio < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queued++
	c.tmQueued.Inc()
	c.pending = append(c.pending, observation{dt: dt, dist: dist, codec: codecName, actual: actual})
	c.pendingN++
	c.tmPending.Set(float64(c.pendingN))
	if c.pendingN >= c.interval {
		c.flushLocked()
	}
}

// FeedbackRun queues a run of measured costs for one (type, dist, codec)
// cell — the batch write path produces one run per codec per group. The
// run is absorbed with RLS's collapsed same-regressor update, so a batch
// costs one covariance update per model instead of one per observation.
func (c *CCP) FeedbackRun(dt stats.DataType, dist stats.Dist, codecName string, actuals []seed.CodecCost) {
	n := 0
	for _, a := range actuals {
		if a.CompressMBps > 0 || a.DecompressMBps > 0 || a.Ratio >= 1 {
			n++
		}
	}
	if n == 0 {
		return
	}
	run := make([]seed.CodecCost, 0, n)
	for _, a := range actuals {
		if a.CompressMBps > 0 || a.DecompressMBps > 0 || a.Ratio >= 1 {
			run = append(run, a)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queued += n
	c.tmQueued.Add(int64(n))
	c.pending = append(c.pending, observation{dt: dt, dist: dist, codec: codecName, run: run})
	c.pendingN += n
	c.tmPending.Set(float64(c.pendingN))
	if c.pendingN >= c.interval {
		c.flushLocked()
	}
}

// Flush forces any pending feedback into the models (called at
// finalization before the seed is written back).
func (c *CCP) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
}

func (c *CCP) flushLocked() {
	if c.pendingN > 0 {
		c.tmBatch.Observe(float64(c.pendingN))
	}
	for _, o := range c.pending {
		if o.run != nil {
			c.absorbRun(o)
		} else {
			c.absorb(o)
		}
	}
	c.pending = c.pending[:0]
	c.pendingN = 0
	c.tmPending.Set(0)
}

// absorbRun folds a same-cell run into the models. With telemetry on it
// falls back to per-observation absorption so the relative-error
// histograms grade every one-step-ahead prediction; with telemetry off
// it uses the collapsed same-regressor RLS update.
func (c *CCP) absorbRun(o observation) {
	if c.reg != nil {
		for _, a := range o.run {
			c.absorb(observation{dt: o.dt, dist: o.dist, codec: o.codec, actual: a})
		}
		return
	}
	f := features(o.dt, o.dist)
	var comp, dec, ratio []float64
	for _, a := range o.run {
		if a.CompressMBps > 0 {
			comp = append(comp, a.CompressMBps)
		}
		if a.DecompressMBps > 0 {
			dec = append(dec, a.DecompressMBps)
		}
		if a.Ratio >= 1 {
			ratio = append(ratio, a.Ratio)
		}
	}
	if len(comp) > 0 {
		c.model(o.codec, targetCompress).ObserveRun(f, comp)
	}
	if len(dec) > 0 {
		c.model(o.codec, targetDecompress).ObserveRun(f, dec)
	}
	if len(ratio) > 0 {
		c.model(o.codec, targetRatio).ObserveRun(f, ratio)
	}
	c.feedbacks += len(o.run)
}

// R2 reports the running one-step-ahead R^2 averaged across models that
// have absorbed runtime feedback — the accuracy metric of Fig. 4(b).
func (c *CCP) R2() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum float64
	n := 0
	for _, m := range c.models {
		if m.N() > 0 {
			sum += m.R2()
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// Stats reports (queued, absorbed) feedback counts.
func (c *CCP) Stats() (queued, absorbed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queued, c.feedbacks
}

// SnapshotCoef exports model coefficients for seed write-back, keyed as
// "codec/target".
func (c *CCP) SnapshotCoef() map[string][]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string][]float64, len(c.models))
	names := [...]string{"compress", "decompress", "ratio"}
	for k, m := range c.models {
		out[k.codec+"/"+names[k.target]] = m.Coef()
	}
	return out
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
