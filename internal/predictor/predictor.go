// Package predictor implements the Compression Cost Predictor (CCP): a
// per-codec table that estimates the Expected Compression Cost 3-tuple
// (compression speed, decompression speed, ratio) for every (data type,
// distribution) cell, bootstrapped from the profiler's JSON seed and
// refined at runtime through a reinforcement-learning feedback loop
// (§IV-D).
//
// The paper's linear regression over the cell's attributes is the
// saturated (type × dist) design: one parameter per cell, so its
// least-squares fit is a per-cell mean. The table is that fit, computed
// cell by cell: an exponentially forgetting mean that starts at the seed
// value, counted as one observation. A cell moves only on its own
// observations, so no stream of feedback can drag an unobserved cell off
// its seed (the covariance windup of a shared recursive fit).
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

const (
	// lambda is the per-observation forgetting factor. A cell's weight
	// follows w ← 1 + λ·w, so it saturates at 1/(1-λ) = 200 observations
	// and the mean keeps tracking workload drift — the "reinforcement"
	// part of the loop.
	lambda = 0.995
	// kappa pulls each cell's prediction toward the mean of its codec's
	// other same-type cells, as loaded. The pull is far below any strict
	// difference between seeded costs, so it only decides exact ties —
	// e.g. the seed prices every codec at ratio 1 on binary/uniform, and
	// the pull prefers the codec that compresses the rest of binary data
	// best over storing it raw.
	kappa = 1e-3

	numDists = 4
	numCells = 4 * numDists // one per (type, dist)
)

func cellOf(dt stats.DataType, dist stats.Dist) int {
	return int(dt)*numDists + int(dist)
}

// cell is one target's running estimate for one (type, dist) pair: the
// forgetting mean v and its weight w (0 for a cell the seed left empty,
// which is then never predicted nor learned).
type cell struct {
	v, w float64
}

// model is one codec's table plus, per target, the running one-step-ahead
// accuracy that Fig. 4(b) plots and, with telemetry on, the relative-error
// histogram (created at the target's first observation).
type model struct {
	name   string
	cells  [numTargets][numCells]cell
	anchor [numTargets][numCells]float64 // kappa · the same-type mean at load
	acc    [numTargets]float64
	accN   [numTargets]int
	relErr [numTargets]*telemetry.Histogram
}

// predict is the cell's estimate with the tie-break pull applied.
func (m *model) predict(t predTarget, i int) float64 {
	return (1-kappa)*m.cells[t][i].v + m.anchor[t][i]
}

type observation struct {
	dt     stats.DataType
	dist   stats.Dist
	codec  string
	actual seed.CodecCost
}

// CCP is the predictor. Safe for concurrent use.
type CCP struct {
	mu        sync.Mutex
	models    map[string]*model
	interval  int
	pending   []observation
	feedbacks int // total observations absorbed
	queued    int // total observations received

	// Telemetry (nil when off).
	reg        *telemetry.Registry
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
	c.tmQueued = reg.Counter("hc_ccp_feedback_queued_total", "actual-cost observations received")
	c.tmAbsorbed = reg.Counter("hc_ccp_feedback_absorbed_total", "observations folded into the models")
	c.tmPending = reg.Gauge("hc_ccp_feedback_pending", "observations waiting for the next batched model update")
	c.tmBatch = reg.Histogram("hc_ccp_feedback_batch_ops", "operations per feedback flush (the model-update lag)", telemetry.DepthBuckets)
}

var targetNames = [...]string{"compress", "decompress", "ratio"}

// New builds a CCP from a seed: every valid table entry becomes its
// cell's starting value, worth one observation (the "initial seed"
// bootstrap).
func New(s *seed.Seed) *CCP {
	c := &CCP{
		models:   make(map[string]*model),
		interval: s.FeedbackInterval,
	}
	if c.interval <= 0 {
		c.interval = seed.DefaultFeedbackInterval
	}
	for _, name := range s.CodecNames() {
		m := &model{name: name}
		seeded := false
		for _, dt := range stats.AllTypes() {
			for _, dist := range stats.AllDists() {
				if cost, ok := s.Costs[seed.Key(dt, dist, name)]; ok && cost.Valid() {
					i := cellOf(dt, dist)
					m.cells[targetCompress][i] = cell{cost.CompressMBps, 1}
					m.cells[targetDecompress][i] = cell{cost.DecompressMBps, 1}
					m.cells[targetRatio][i] = cell{cost.Ratio, 1}
					seeded = true
				}
			}
		}
		if seeded {
			m.setAnchors()
			c.models[name] = m
		}
	}
	return c
}

// setAnchors fixes each seeded cell's tie-break target: the mean of its
// codec's other seeded cells of the same data type, or its own value when
// it has none. The anchor excludes the cell itself, so a learned cell
// written back by Costs predicts the same value after a reload as long as
// its siblings learned nothing; each learned sibling moves the anchor by
// kappa times its change over the number of siblings.
func (m *model) setAnchors() {
	for t := range m.cells {
		for i := range m.cells[t] {
			if m.cells[t][i].w == 0 {
				continue
			}
			sum, n := 0.0, 0
			first := i - i%numDists // the type's uniform cell
			for j := first; j < first+numDists; j++ {
				if j != i && m.cells[t][j].w > 0 {
					sum += m.cells[t][j].v
					n++
				}
			}
			mean := m.cells[t][i].v
			if n > 0 {
				mean = sum / float64(n)
			}
			m.anchor[t][i] = kappa * mean
		}
	}
}

// absorb folds one observation into its cell. Partial tuples are allowed:
// a write-path feedback knows compression speed and ratio but not
// decompression speed (that arrives with the read), so zero components
// (Feedback zeroes every unusable one) are skipped. A cell the seed left
// empty learns nothing.
func (c *CCP) absorb(o observation) {
	m := c.models[o.codec]
	i := cellOf(o.dt, o.dist)
	if m == nil || m.cells[targetCompress][i].w == 0 {
		return
	}
	for t, y := range [numTargets]float64{o.actual.CompressMBps, o.actual.DecompressMBps, o.actual.Ratio} {
		if y > 0 {
			c.observe(m, predTarget(t), i, y)
		}
	}
	c.feedbacks++
	c.tmAbsorbed.Inc()
}

// observe grades the cell's one-step-ahead prediction against y — the
// running accuracy behind the paper's R2 claim, and with telemetry on the
// per-(codec, target) relative-error histogram — then updates the cell's
// forgetting mean. Callers must hold c.mu.
func (c *CCP) observe(m *model, t predTarget, i int, y float64) {
	relErr := math.Abs(m.predict(t, i)-y) / y
	const alpha = 0.05
	if m.accN[t] == 0 {
		m.acc[t] = max(0, 1-relErr)
	} else {
		m.acc[t] += alpha * (max(0, 1-relErr) - m.acc[t])
	}
	m.accN[t]++
	if c.reg != nil {
		if m.relErr[t] == nil {
			m.relErr[t] = c.reg.Histogram("hc_ccp_pred_relerr", "one-step-ahead relative prediction error",
				telemetry.RelErrBuckets,
				telemetry.L("codec", m.name), telemetry.L("target", targetNames[t]))
		}
		m.relErr[t].Observe(relErr)
	}
	cl := &m.cells[t][i]
	cl.w = 1 + lambda*cl.w
	cl.v += (y - cl.v) / cl.w
}

// Predict returns the ECC for a (type, dist, codec) combination. ok is
// false when the seed had no entry for the combination.
func (c *CCP) Predict(dt stats.DataType, dist stats.Dist, codecName string) (seed.CodecCost, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.models[codecName]
	i := cellOf(dt, dist)
	if m == nil || m.cells[targetCompress][i].w == 0 {
		return seed.CodecCost{}, false
	}
	return seed.CodecCost{
		CompressMBps:   clamp(m.predict(targetCompress, i), 0.1, 1e6),
		DecompressMBps: clamp(m.predict(targetDecompress, i), 0.1, 1e6),
		Ratio:          clamp(m.predict(targetRatio, i), 1, 1e4),
	}, true
}

// usable keeps the components of a measured cost that can inform a
// model — finite speeds above zero, a finite ratio of at least 1 — and
// zeroes the rest. ok is false when nothing is left.
func usable(a seed.CodecCost) (_ seed.CodecCost, ok bool) {
	keep := func(v float64, inRange bool) float64 {
		if inRange && !math.IsInf(v, 1) { // NaN is in no range
			ok = true
			return v
		}
		return 0
	}
	a.CompressMBps = keep(a.CompressMBps, a.CompressMBps > 0)
	a.DecompressMBps = keep(a.DecompressMBps, a.DecompressMBps > 0)
	a.Ratio = keep(a.Ratio, a.Ratio >= 1)
	return a, ok
}

// Feedback queues an actual measured cost. Models update only when the
// batch reaches the configured interval.
func (c *CCP) Feedback(dt stats.DataType, dist stats.Dist, codecName string, actual seed.CodecCost) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queueLocked(observation{dt: dt, dist: dist, codec: codecName, actual: actual})
}

// FeedbackRun queues a run of measured costs for one (type, dist, codec)
// cell — the batch write path produces one run per codec per group —
// under one lock acquisition. Each cost counts toward the flush interval
// exactly as if it had been fed through Feedback.
func (c *CCP) FeedbackRun(dt stats.DataType, dist stats.Dist, codecName string, actuals []seed.CodecCost) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, a := range actuals {
		c.queueLocked(observation{dt: dt, dist: dist, codec: codecName, actual: a})
	}
}

func (c *CCP) queueLocked(o observation) {
	var ok bool
	if o.actual, ok = usable(o.actual); !ok {
		return
	}
	c.queued++
	c.tmQueued.Inc()
	c.pending = append(c.pending, o)
	c.tmPending.Set(float64(len(c.pending)))
	if len(c.pending) >= c.interval {
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
	if len(c.pending) > 0 {
		c.tmBatch.Observe(float64(len(c.pending)))
	}
	for _, o := range c.pending {
		c.absorb(o)
	}
	c.pending = c.pending[:0]
	c.tmPending.Set(0)
}

// R2 reports the running one-step-ahead accuracy averaged across models
// that have absorbed runtime feedback — the accuracy metric of Fig. 4(b).
func (c *CCP) R2() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum float64
	n := 0
	for _, m := range c.models {
		for t := range m.acc {
			if m.accN[t] > 0 {
				sum += m.acc[t]
				n++
			}
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

// Costs returns the learned table in the seed's layout, one entry per
// seeded cell, for write-back at finalization. Loading it gives every
// cell its current value back.
func (c *CCP) Costs() map[string]seed.CodecCost {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]seed.CodecCost, len(c.models)*numCells)
	for name, m := range c.models {
		for _, dt := range stats.AllTypes() {
			for _, dist := range stats.AllDists() {
				if i := cellOf(dt, dist); m.cells[targetCompress][i].w > 0 {
					out[seed.Key(dt, dist, name)] = seed.CodecCost{
						CompressMBps:   m.cells[targetCompress][i].v,
						DecompressMBps: m.cells[targetDecompress][i].v,
						Ratio:          m.cells[targetRatio][i].v,
					}
				}
			}
		}
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
