package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSamplerMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	cases := []struct {
		s    Sampler
		want float64
		tol  float64
	}{
		{Sampler{Dist: Uniform, Scale: 1000}, 500, 10},
		{Sampler{Dist: Normal, Scale: 1000}, 1000, 10},
		{Sampler{Dist: Exponential, Scale: 1000}, 1000, 20},
		{Sampler{Dist: Gamma, Shape: 2, Scale: 1000}, 2000, 40},
		{Sampler{Dist: Gamma, Shape: 0.5, Scale: 1000}, 500, 20},
	}
	for _, c := range cases {
		var sum float64
		for i := 0; i < n; i++ {
			sum += c.s.Sample(rng)
		}
		got := sum / n
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("%v: mean %.1f, want %.1f±%.1f", c.s.Dist, got, c.want, c.tol)
		}
	}
}

func TestComputeMoments(t *testing.T) {
	m := computeMoments([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m.Mean != 5 {
		t.Errorf("mean %v want 5", m.Mean)
	}
	if m.Variance != 4 {
		t.Errorf("variance %v want 4", m.Variance)
	}
	if m.Min != 2 || m.Max != 9 {
		t.Errorf("min/max %v/%v", m.Min, m.Max)
	}
	empty := computeMoments(nil)
	if empty.N != 0 {
		t.Error("empty moments")
	}
}

func TestClassifyDist(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 8192
	for _, d := range AllDists() {
		s := Sampler{Dist: d, Shape: 3, Scale: 100}
		correct := 0
		const trials = 10
		for trial := 0; trial < trials; trial++ {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = s.Sample(rng)
			}
			if ClassifyDist(xs) == d {
				correct++
			}
		}
		if correct < trials*7/10 {
			t.Errorf("dist %v: classified correctly only %d/%d", d, correct, trials)
		}
	}
}

func TestClassifyDistDegenerate(t *testing.T) {
	if got := ClassifyDist(nil); got != Uniform {
		t.Errorf("nil -> %v", got)
	}
	if got := ClassifyDist([]float64{5, 5, 5, 5, 5, 5, 5, 5, 5}); got != Uniform {
		t.Errorf("constant -> %v", got)
	}
}

func TestDistNames(t *testing.T) {
	for _, d := range AllDists() {
		back, ok := DistByName(d.String())
		if !ok || back != d {
			t.Errorf("round-trip %v failed", d)
		}
	}
	if _, ok := DistByName("cauchy"); ok {
		t.Error("cauchy should not resolve")
	}
}

func TestOLSRecoversCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// y = 3 + 2*x1 - 0.5*x2 + noise
	n := 500
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x1, x2 := rng.Float64()*10, rng.Float64()*10
		xs[i] = []float64{x1, x2}
		ys[i] = 3 + 2*x1 - 0.5*x2 + rng.NormFloat64()*0.1
	}
	res, err := OLS(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, -0.5}
	for j, w := range want {
		if math.Abs(res.Coef[j]-w) > 0.05 {
			t.Errorf("coef[%d] = %.4f, want %.4f", j, res.Coef[j], w)
		}
	}
	if res.R2 < 0.99 {
		t.Errorf("R2 = %.4f, want > 0.99", res.R2)
	}
	if res.AdjR2 > res.R2 {
		t.Error("adjusted R2 must not exceed R2")
	}
	for j := 1; j < 3; j++ {
		if res.PValues[j] > 0.001 {
			t.Errorf("p-value[%d] = %v, should be significant", j, res.PValues[j])
		}
	}
	if res.FStat < 100 {
		t.Errorf("F-stat = %v, want large", res.FStat)
	}
}

func TestOLSInsignificantPredictor(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 300
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x1, junk := rng.Float64()*10, rng.Float64()*10
		xs[i] = []float64{x1, junk}
		ys[i] = 1 + x1 + rng.NormFloat64()
	}
	res, err := OLS(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValues[2] < 0.01 {
		t.Errorf("junk predictor p-value %v suspiciously small", res.PValues[2])
	}
}

func TestOLSErrors(t *testing.T) {
	if _, err := OLS(nil, nil); err == nil {
		t.Error("empty OLS should fail")
	}
	// Collinear predictors -> singular.
	xs := [][]float64{{1, 2}, {2, 4}, {3, 6}, {4, 8}, {5, 10}}
	ys := []float64{1, 2, 3, 4, 5}
	if _, err := OLS(xs, ys); err == nil {
		t.Error("collinear OLS should fail")
	}
}

func TestOLSPredict(t *testing.T) {
	xs := [][]float64{{1}, {2}, {3}, {4}}
	ys := []float64{2, 4, 6, 8}
	res, err := OLS(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Predict([]float64{5}); math.Abs(p-10) > 1e-6 {
		t.Errorf("predict(5) = %v, want 10", p)
	}
}

func TestRegIncBeta(t *testing.T) {
	// I_x(1,1) is the identity.
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := regIncBeta(1, 1, x); math.Abs(got-x) > 1e-10 {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	for _, x := range []float64{0.1, 0.3, 0.7} {
		lhs := regIncBeta(2, 3, x)
		rhs := 1 - regIncBeta(3, 2, 1-x)
		if math.Abs(lhs-rhs) > 1e-10 {
			t.Errorf("symmetry violated at %v: %v vs %v", x, lhs, rhs)
		}
	}
}

func TestTDistSF(t *testing.T) {
	// For large df, t approaches standard normal: SF(1.96) ~ 0.025.
	if got := tDistSF(1.96, 10000); math.Abs(got-0.025) > 0.001 {
		t.Errorf("tDistSF(1.96, 1e4) = %v", got)
	}
	// t(1) is Cauchy: SF(1) = 0.25.
	if got := tDistSF(1, 1); math.Abs(got-0.25) > 0.001 {
		t.Errorf("tDistSF(1,1) = %v", got)
	}
}

func TestGenBufferDeterministic(t *testing.T) {
	a := GenBuffer(TypeFloat, Gamma, 4096, 42)
	b := GenBuffer(TypeFloat, Gamma, 4096, 42)
	if len(a) != 4096 {
		t.Fatalf("len %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("GenBuffer not deterministic")
		}
	}
	c := GenBuffer(TypeFloat, Gamma, 4096, 43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical buffers")
	}
}

func TestGenBufferTypesClassifiable(t *testing.T) {
	// The generator and classifier must agree: generated int/float data,
	// sampled back out, should classify to the generating distribution
	// most of the time.
	ok := 0
	total := 0
	for _, dt := range []DataType{TypeInt, TypeFloat} {
		for _, d := range AllDists() {
			buf := GenBuffer(dt, d, 1<<16, int64(100+int(dt)*10+int(d)))
			xs := SampleFloats(make([]float64, 4096), buf, dt)
			total++
			if ClassifyDist(xs) == d {
				ok++
			}
		}
	}
	if ok*10 < total*6 {
		t.Errorf("classifier agreed on %d/%d generated buffers", ok, total)
	}
}

func TestGenBufferExactLength(t *testing.T) {
	f := func(n uint16) bool {
		buf := GenBuffer(TypeInt, Uniform, int(n), 1)
		return len(buf) == int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleFloatsBounded(t *testing.T) {
	buf := GenBuffer(TypeFloat, Normal, 1<<20, 7)
	xs := SampleFloats(make([]float64, 1000), buf, TypeFloat)
	if len(xs) > 1000+4 {
		t.Errorf("SampleFloats returned %d > max", len(xs))
	}
	if len(xs) < 500 {
		t.Errorf("SampleFloats returned too few: %d", len(xs))
	}
}

func TestTypeNames(t *testing.T) {
	for _, dt := range AllTypes() {
		back, ok := TypeByName(dt.String())
		if !ok || back != dt {
			t.Errorf("type %v round-trip failed", dt)
		}
	}
}

func BenchmarkClassifyDist(b *testing.B) {
	buf := GenBuffer(TypeFloat, Gamma, 1<<20, 9)
	xs := SampleFloats(make([]float64, 4096), buf, TypeFloat)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ClassifyDist(xs)
	}
}

// --- OLS: batch least squares with t-test p-values. It was the reference
// for a recursive least-squares fit this package no longer has; nothing
// but its own tests above uses it now (ROADMAP item 8 queues its
// removal) ---

// errSingular is returned when the normal equations are not solvable.
var errSingular = errors.New("stats: singular design matrix")

// OLSResult holds a fitted linear model y = b0 + b1*x1 + ... and its
// inference statistics — the quantities the paper reports for the CCP
// (adjusted R^2 of 94%, p-values < 0.02, F-statistic 928).
type OLSResult struct {
	Coef       []float64 // Coef[0] is the intercept
	R2         float64
	AdjR2      float64
	FStat      float64
	PValues    []float64 // per coefficient (t-test), same indexing as Coef
	StdErr     []float64
	N          int
	DFResidual int
}

// OLS fits ordinary least squares with an intercept. xs is row-major:
// xs[i] are the predictor values for observation i.
func OLS(xs [][]float64, ys []float64) (*OLSResult, error) {
	n := len(xs)
	if n == 0 || n != len(ys) {
		return nil, fmt.Errorf("stats: OLS needs matching non-empty xs, ys (got %d, %d)", n, len(ys))
	}
	k := len(xs[0]) // predictors (excluding intercept)
	p := k + 1
	if n <= p {
		return nil, fmt.Errorf("stats: OLS needs n > predictors+1 (n=%d, p=%d)", n, p)
	}
	// Build X'X and X'y with the intercept column folded in.
	xtx := make([][]float64, p)
	for i := range xtx {
		xtx[i] = make([]float64, p)
	}
	xty := make([]float64, p)
	row := make([]float64, p)
	for i := 0; i < n; i++ {
		if len(xs[i]) != k {
			return nil, fmt.Errorf("stats: ragged design matrix at row %d", i)
		}
		row[0] = 1
		copy(row[1:], xs[i])
		for a := 0; a < p; a++ {
			for b := a; b < p; b++ {
				xtx[a][b] += row[a] * row[b]
			}
			xty[a] += row[a] * ys[i]
		}
	}
	for a := 0; a < p; a++ {
		for b := 0; b < a; b++ {
			xtx[a][b] = xtx[b][a]
		}
	}
	inv, err := invertSPD(xtx)
	if err != nil {
		return nil, err
	}
	coef := make([]float64, p)
	for a := 0; a < p; a++ {
		for b := 0; b < p; b++ {
			coef[a] += inv[a][b] * xty[b]
		}
	}
	// Residuals and fit statistics.
	var ssRes, ssTot, meanY float64
	for _, y := range ys {
		meanY += y
	}
	meanY /= float64(n)
	for i := 0; i < n; i++ {
		pred := coef[0]
		for j := 0; j < k; j++ {
			pred += coef[j+1] * xs[i][j]
		}
		r := ys[i] - pred
		ssRes += r * r
		d := ys[i] - meanY
		ssTot += d * d
	}
	res := &OLSResult{Coef: coef, N: n, DFResidual: n - p}
	if ssTot > 0 {
		res.R2 = 1 - ssRes/ssTot
		res.AdjR2 = 1 - (1-res.R2)*float64(n-1)/float64(n-p)
	} else {
		res.R2, res.AdjR2 = 1, 1
	}
	sigma2 := ssRes / float64(n-p)
	res.StdErr = make([]float64, p)
	res.PValues = make([]float64, p)
	for a := 0; a < p; a++ {
		se := math.Sqrt(sigma2 * inv[a][a])
		res.StdErr[a] = se
		if se > 0 {
			t := coef[a] / se
			res.PValues[a] = 2 * tDistSF(math.Abs(t), float64(n-p))
		} else {
			res.PValues[a] = 0
		}
	}
	if k > 0 && ssRes > 0 {
		res.FStat = (ssTot - ssRes) / float64(k) / sigma2
	} else {
		res.FStat = math.Inf(1)
	}
	return res, nil
}

// Predict evaluates the fitted model at x.
func (r *OLSResult) Predict(x []float64) float64 {
	pred := r.Coef[0]
	for j, v := range x {
		if j+1 < len(r.Coef) {
			pred += r.Coef[j+1] * v
		}
	}
	return pred
}

// invertSPD inverts a symmetric positive-definite matrix via Gauss-Jordan
// with partial pivoting (sizes here are tiny, <= ~20).
func invertSPD(a [][]float64) ([][]float64, error) {
	n := len(a)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, 2*n)
		copy(m[i], a[i])
		m[i][n+i] = 1
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-12 {
			return nil, errSingular
		}
		m[col], m[piv] = m[piv], m[col]
		inv := 1 / m[col][col]
		for j := col; j < 2*n; j++ {
			m[col][j] *= inv
		}
		for r := 0; r < n; r++ {
			if r == col || m[r][col] == 0 {
				continue
			}
			f := m[r][col]
			for j := col; j < 2*n; j++ {
				m[r][j] -= f * m[col][j]
			}
		}
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = m[i][n:]
	}
	return out, nil
}

// tDistSF is the survival function of Student's t with df degrees of
// freedom, via the regularized incomplete beta function.
func tDistSF(t, df float64) float64 {
	if t <= 0 {
		return 0.5
	}
	x := df / (df + t*t)
	return 0.5 * regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes I_x(a, b) using the continued-fraction expansion
// (Numerical Recipes betacf).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(lbeta)
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

func betacf(a, b, x float64) float64 {
	const maxIter = 300
	const eps = 3e-14
	const fpmin = 1e-300
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
