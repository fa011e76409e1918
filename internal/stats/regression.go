package stats

import "math"

// RLS is a recursive least squares estimator with exponential forgetting:
// the online model behind the CCP's feedback loop. Each Observe call is
// O(p^2); there is no matrix inversion at runtime.
type RLS struct {
	p      int
	lambda float64     // forgetting factor in (0, 1]
	theta  []float64   // coefficients, theta[0] = intercept
	pmat   [][]float64 // inverse covariance estimate
	nobs   int
	seen   int // observations since construction (never reset)
	// Running accuracy tracking: an exponentially weighted average of the
	// one-step-ahead relative accuracy 1 - |err|/|y|. This is the
	// "accuracy (R2)" metric the paper's Fig. 4(b) plots; unlike a raw
	// predictive R^2 it stays meaningful when the target is near-constant.
	acc     float64
	accInit bool
	// Scratch vectors reused by Observe. Observe mutates theta/pmat and
	// therefore already requires external synchronization; reusing the
	// scratch under the same discipline keeps the update allocation-free.
	phi, pphi, gain []float64
}

// NewRLS creates an estimator for k predictors (plus intercept).
// lambda = 1 is ordinary recursive least squares; values slightly below 1
// let the model track drift — the "reinforcement" in the paper's loop.
func NewRLS(k int, lambda float64) *RLS {
	p := k + 1
	r := &RLS{
		p: p, lambda: lambda, theta: make([]float64, p),
		phi: make([]float64, p), pphi: make([]float64, p), gain: make([]float64, p),
	}
	r.pmat = make([][]float64, p)
	for i := range r.pmat {
		r.pmat[i] = make([]float64, p)
		r.pmat[i][i] = 1e4 // diffuse prior
	}
	return r
}

// Coef returns a copy of the current coefficients.
func (r *RLS) Coef() []float64 {
	return append([]float64(nil), r.theta...)
}

// N reports the number of observations absorbed.
func (r *RLS) N() int { return r.nobs }

// Predict evaluates the model at x (length k).
func (r *RLS) Predict(x []float64) float64 {
	pred := r.theta[0]
	for j, v := range x {
		if j+1 < r.p {
			pred += r.theta[j+1] * v
		}
	}
	return pred
}

// Observe folds in one (x, y) observation.
func (r *RLS) Observe(x []float64, y float64) {
	phi := r.phi
	phi[0] = 1
	n := copy(phi[1:], x)
	for i := 1 + n; i < r.p; i++ {
		phi[i] = 0
	}

	// Track accuracy against the pre-update prediction.
	pred := r.Predict(x)
	r.nobs++
	r.seen++
	e := y - pred
	denom := math.Abs(y)
	if denom < 1e-12 {
		denom = 1e-12
	}
	rel := 1 - math.Abs(e)/denom
	if rel < 0 {
		rel = 0
	}
	const alpha = 0.05
	if !r.accInit {
		r.acc = rel
		r.accInit = true
	} else {
		r.acc += alpha * (rel - r.acc)
	}

	// Standard RLS update.
	pphi := r.pphi
	for i := 0; i < r.p; i++ {
		pphi[i] = 0
		for j := 0; j < r.p; j++ {
			pphi[i] += r.pmat[i][j] * phi[j]
		}
	}
	den := r.lambda
	for i := 0; i < r.p; i++ {
		den += phi[i] * pphi[i]
	}
	gain := r.gain
	for i := 0; i < r.p; i++ {
		gain[i] = pphi[i] / den
	}
	for i := 0; i < r.p; i++ {
		r.theta[i] += gain[i] * e
	}
	for i := 0; i < r.p; i++ {
		for j := 0; j < r.p; j++ {
			r.pmat[i][j] = (r.pmat[i][j] - gain[i]*pphi[j]) / r.lambda
		}
	}
}

// ObserveRun folds in a run of observations that share one feature
// vector, as batched feedback produces. It follows the same sequential
// recursion as calling Observe once per y: with a fixed regressor the
// gain stays collinear with P·phi, so the k rank-1 covariance updates
// collapse to scalar recursions plus a single rank-1 write at the end —
// O(p^2 + k·p) instead of O(k·p^2). Results match the sequential path
// up to floating-point reassociation.
func (r *RLS) ObserveRun(x []float64, ys []float64) {
	if len(ys) == 0 {
		return
	}
	if len(ys) == 1 {
		r.Observe(x, ys[0])
		return
	}
	phi := r.phi
	phi[0] = 1
	n := copy(phi[1:], x)
	for i := 1 + n; i < r.p; i++ {
		phi[i] = 0
	}
	// q0 = P·phi and s0 = phi'·P·phi for the pre-run covariance; every
	// intermediate P_i is a·P0 + b·q0·q0', so the whole run reduces to
	// the scalars (a, b) plus the running prediction.
	q := r.pphi
	for i := 0; i < r.p; i++ {
		q[i] = 0
		for j := 0; j < r.p; j++ {
			q[i] += r.pmat[i][j] * phi[j]
		}
	}
	s0 := 0.0
	for i := 0; i < r.p; i++ {
		s0 += phi[i] * q[i]
	}
	pred := r.Predict(x)
	a, b, coefA := 1.0, 0.0, 0.0
	const alpha = 0.05
	for _, y := range ys {
		r.nobs++
		r.seen++
		e := y - pred
		denom := math.Abs(y)
		if denom < 1e-12 {
			denom = 1e-12
		}
		rel := 1 - math.Abs(e)/denom
		if rel < 0 {
			rel = 0
		}
		if !r.accInit {
			r.acc = rel
			r.accInit = true
		} else {
			r.acc += alpha * (rel - r.acc)
		}
		c := a + b*s0 // q_i = c·q0, s_i = c·s0
		den := r.lambda + c*s0
		coefA += c * e / den
		pred += c * s0 / den * e
		a /= r.lambda
		b = (b - c*c/den) / r.lambda
	}
	for i := 0; i < r.p; i++ {
		r.theta[i] += coefA * q[i]
	}
	for i := 0; i < r.p; i++ {
		for j := 0; j < r.p; j++ {
			r.pmat[i][j] = a*r.pmat[i][j] + b*q[i]*q[j]
		}
	}
}

// R2 reports the running one-step-ahead prediction accuracy (the
// "accuracy (R2)" metric of the paper's Fig. 4(b)), in [0, 1].
func (r *RLS) R2() float64 {
	if !r.accInit {
		return 1
	}
	return r.acc
}

// Seen reports the total observations ever absorbed (survives
// ResetAccuracy; used to distinguish "seeded" from "empty" models).
func (r *RLS) Seen() int { return r.seen }

// ResetAccuracy clears the running accuracy counters while keeping the
// fitted model (used when a new phase begins).
func (r *RLS) ResetAccuracy() {
	r.acc, r.accInit, r.nobs = 0, false, 0
}
