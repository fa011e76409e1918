package workload

import (
	"math"
	"math/rand"
	"sort"
)

// Zipf samples ranks 0..n-1 with power-law weight P(k) ∝ 1/(k+1)^s: rank
// 0 is the hottest key, and skew s controls how hot (s=0 is uniform,
// s≈1 is the classic web/storage access skew, larger s concentrates
// almost all traffic on the first few ranks). Unlike rand.Zipf it
// accepts any s > 0 — hot-read benchmarks want to sweep through s=0.5
// and s=0.99, both below the stdlib's s>1 floor.
//
// Sampling is inverse-CDF over a precomputed table (binary search, no
// rejection), so a sampler is deterministic for a given seed — the
// benchmark's cache-on and cache-off arms replay byte-identical key
// sequences.
type Zipf struct {
	rng *rand.Rand
	cdf []float64
}

// NewZipf builds a sampler over n ranks with skew s, seeded
// deterministically. s <= 0 degenerates to uniform; n < 1 is pinned
// to 1.
func NewZipf(n int, s float64, seed int64) *Zipf {
	if n < 1 {
		n = 1
	}
	if s < 0 {
		s = 0
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &Zipf{rng: rand.New(rand.NewSource(seed)), cdf: cdf}
}

// Next draws the next rank in [0, N).
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}
