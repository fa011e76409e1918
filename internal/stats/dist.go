// Package stats provides the statistical substrate for HCompress: random
// data generators over the four distributions the paper's Input Analyzer
// distinguishes (uniform, normal, exponential, gamma), moment estimators,
// and a moment-based distribution classifier.
package stats

import (
	"math"
	"math/rand"
)

// Dist enumerates the content distributions the Input Analyzer classifies.
type Dist int

const (
	Uniform Dist = iota
	Normal
	Exponential
	Gamma
	numDists
)

var distNames = [...]string{"uniform", "normal", "exponential", "gamma"}

func (d Dist) String() string {
	if d < 0 || int(d) >= len(distNames) {
		return "unknown"
	}
	return distNames[d]
}

// AllDists lists every classifiable distribution.
func AllDists() []Dist { return []Dist{Uniform, Normal, Exponential, Gamma} }

// DistByName resolves a distribution name; it returns Uniform, false for
// unknown names.
func DistByName(name string) (Dist, bool) {
	for i, n := range distNames {
		if n == name {
			return Dist(i), true
		}
	}
	return Uniform, false
}

// Sampler draws float64 variates from a distribution family with fixed
// parameters, using a caller-owned RNG so streams are reproducible.
type Sampler struct {
	Dist  Dist
	Shape float64 // gamma shape k (>0); ignored otherwise
	Scale float64 // scale/rate parameter; see Sample
}

// Sample draws one variate:
//
//	Uniform:     U(0, Scale)
//	Normal:      N(Scale, (Scale/4)^2), clamped shifts keep values positive-ish
//	Exponential: Exp(rate 1/Scale), mean Scale
//	Gamma:       Gamma(Shape, Scale)
func (s Sampler) Sample(rng *rand.Rand) float64 {
	switch s.Dist {
	case Uniform:
		return rng.Float64() * s.Scale
	case Normal:
		return rng.NormFloat64()*(s.Scale/4) + s.Scale
	case Exponential:
		return rng.ExpFloat64() * s.Scale
	case Gamma:
		return sampleGamma(rng, s.Shape, s.Scale)
	default:
		return rng.Float64() * s.Scale
	}
}

// sampleGamma draws Gamma(k, theta) via Marsaglia-Tsang, with the standard
// boost for k < 1.
func sampleGamma(rng *rand.Rand, k, theta float64) float64 {
	if k <= 0 {
		k = 1
	}
	boost := 1.0
	if k < 1 {
		boost = math.Pow(rng.Float64(), 1/k)
		k++
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return boost * d * v * theta
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return boost * d * v * theta
		}
	}
}

// moments summarizes a sample.
type moments struct {
	N        int
	Mean     float64
	Variance float64 // population variance
	Skewness float64
	Kurtosis float64 // excess kurtosis
	Min, Max float64
}

// computeMoments returns the first four standardized moments of xs.
func computeMoments(xs []float64) moments {
	m := moments{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	if len(xs) == 0 {
		return m
	}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < m.Min {
			m.Min = x
		}
		if x > m.Max {
			m.Max = x
		}
	}
	m.Mean = sum / float64(len(xs))
	var m2, m3, m4 float64
	for _, x := range xs {
		d := x - m.Mean
		d2 := d * d
		m2 += d2
		m3 += d2 * d
		m4 += d2 * d2
	}
	n := float64(len(xs))
	m2 /= n
	m3 /= n
	m4 /= n
	m.Variance = m2
	if m2 > 0 {
		sd := math.Sqrt(m2)
		m.Skewness = m3 / (sd * sd * sd)
		m.Kurtosis = m4/(m2*m2) - 3
	}
	return m
}

// ClassifyDist assigns samples to the nearest of the four families by
// matching standardized moments:
//
//	uniform:     skew 0,      excess kurtosis -1.2
//	normal:      skew 0,      excess kurtosis 0
//	exponential: skew 2,      excess kurtosis 6
//	gamma(k):    skew 2/sqrt(k), kurtosis 6/k — with k estimated from the
//	             coefficient of variation, covering the space between
//	             normal (k -> inf) and exponential (k = 1).
//
// The classifier is intentionally cheap: the paper performs detection
// "statically using techniques such as sub-sampling" and treats it as a
// fast pre-pass, not an inference problem.
func ClassifyDist(xs []float64) Dist {
	m := computeMoments(xs)
	if m.N < 8 || m.Variance == 0 {
		return Uniform
	}
	type candidate struct {
		d        Dist
		skew, ku float64
	}
	cands := [4]candidate{
		{Uniform, 0, -1.2},
		{Normal, 0, 0},
		{Exponential, 2, 6},
	}
	n := 3
	// Gamma shape from CV when the sample is positive-supported. Gamma(1)
	// IS the exponential and Gamma(k->inf) converges to the normal, so a
	// gamma candidate is only offered when the estimated shape is clearly
	// away from both degenerate corners; otherwise the simpler family wins.
	if m.Min >= 0 && m.Mean > 0 {
		k := (m.Mean * m.Mean) / m.Variance
		if k > 0.05 && k < 30 && (k < 0.75 || k > 1.3) {
			cands[n] = candidate{Gamma, 2 / math.Sqrt(k), 6 / k}
			n++
		}
	}
	best := Uniform
	bestScore := math.Inf(1)
	for _, c := range cands[:n] {
		ds := m.Skewness - c.skew
		dk := (m.Kurtosis - c.ku) / 3 // kurtosis is noisier; downweight
		score := ds*ds + dk*dk
		// Gamma with k near 1 duplicates exponential and k large duplicates
		// normal; prefer the simpler family on near-ties.
		if c.d == Gamma {
			score *= 1.05
		}
		if score < bestScore {
			bestScore = score
			best = c.d
		}
	}
	return best
}
