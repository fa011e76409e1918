package main

import (
	"math"
	"slices"
)

// ratio is a/b, or 0 when b is 0 or the quotient is not finite: every
// value printed must be a plain JSON number.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	if q := a / b; !math.IsNaN(q) && !math.IsInf(q, 0) {
		return q
	}
	return 0
}

// median of xs (mean of the middle pair for even counts); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentileNs is the p-th percentile (nearest rank) of ns samples, in
// milliseconds; 0 when empty.
func percentileNs(samples []int64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return float64(s[min(max(i, 0), len(s)-1)]) / 1e6
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is
// what the acceptance rule is written against.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	if ld < 2 {
		return median(s), median(s)
	}
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// medianOf maps every rep through f and takes the median.
func medianOf(reps []*repResult, f func(*repResult) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}
