package stats

import (
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
