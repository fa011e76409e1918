package analyzer

// The Input Analyzer as it stood before the single-pass rewrite, kept
// verbatim (only renamed with a ref prefix) as the oracle for
// TestAnalyzeMatchesReference, FuzzAnalyzeMatchesReference and
// testdata/verdicts.golden. Do not "improve" this file: its value is
// that it is the old code.

import (
	"encoding/binary"
	"math"

	"hcompress/internal/stats"
)

// refAnalyze is the old unhinted AnalyzeWithHint.
func refAnalyze(buf []byte) Result {
	r := Result{Size: len(buf), Format: refDetectFormat(buf)}
	r.Type = refDetectType(buf)
	r.Dist = refClassifyDist(refSampleFloats(buf, r.Type, distSamples))
	return r
}

func refDetectFormat(buf []byte) Format {
	if len(buf) >= 4 && buf[0] == h5liteMagic[0] && buf[1] == h5liteMagic[1] &&
		buf[2] == h5liteMagic[2] && buf[3] == h5liteMagic[3] {
		return formatH5Lite
	}
	// Leading-whitespace-tolerant JSON sniff.
	for _, b := range buf[:minInt(len(buf), 64)] {
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		case '{', '[':
			if refLooksTextual(buf) {
				return formatJSON
			}
			return formatRaw
		default:
			goto notJSON
		}
	}
notJSON:
	if refLooksTextual(buf) && refLooksCSV(buf) {
		return formatCSV
	}
	return formatRaw
}

// refDetectType classifies element type from a sub-sample: text, then float32,
// then int32, else opaque binary. The sample strides across the whole
// buffer but touches at most maxScanBytes bytes.
func refDetectType(buf []byte) stats.DataType {
	if len(buf) == 0 {
		return stats.TypeBinary
	}
	if refLooksTextual(buf) {
		return stats.TypeText
	}
	sample := buf[:len(buf)&^3]
	if len(sample) < 4 {
		return stats.TypeBinary
	}
	stride := wordStride(len(sample))
	floatish, intish := 0, 0
	total := 0
	for i := 0; i+4 <= len(sample); i += stride {
		v := binary.LittleEndian.Uint32(sample[i:])
		total++
		f := math.Float32frombits(v)
		// Plausible measurement floats: finite, not denormal-tiny, and of
		// moderate magnitude.
		if !math.IsNaN(float64(f)) && !math.IsInf(float64(f), 0) {
			a := math.Abs(float64(f))
			if a == 0 || (a > 1e-20 && a < 1e20) {
				floatish++
			}
		}
		// Plausible int32 measurements cluster near zero relative to the
		// full 32-bit range.
		if iv := int32(v); iv > -(1<<26) && iv < 1<<26 {
			intish++
		}
	}
	if total == 0 {
		return stats.TypeBinary
	}
	ff := float64(floatish) / float64(total)
	fi := float64(intish) / float64(total)
	switch {
	case fi >= 0.95 && fi >= ff:
		return stats.TypeInt
	case ff >= 0.95:
		return stats.TypeFloat
	case fi >= 0.80 || ff >= 0.80:
		if fi >= ff {
			return stats.TypeInt
		}
		return stats.TypeFloat
	default:
		return stats.TypeBinary
	}
}

// refLooksTextual samples byte positions across the whole buffer (at most
// textSamples of them) and checks the printable fraction.
func refLooksTextual(buf []byte) bool {
	n := len(buf)
	if n == 0 {
		return false
	}
	printable := 0
	stride := maxInt(1, (n+textSamples-1)/textSamples)
	seen := 0
	for i := 0; i < n; i += stride {
		b := buf[i]
		if (b >= 0x20 && b < 0x7F) || b == '\n' || b == '\r' || b == '\t' {
			printable++
		}
		seen++
	}
	return float64(printable) >= printableFrac*float64(seen)
}

// refLooksCSV inspects up to maxScanBytes of contiguous text — the head
// plus, for large buffers, a window from the middle — because the
// comma/newline ratio test needs unbroken runs of lines to be
// meaningful, unlike the strided byte sampling above.
func refLooksCSV(buf []byte) bool {
	const half = maxScanBytes / 2
	head := buf[:minInt(len(buf), half)]
	var mid []byte
	if len(buf) > 2*half {
		start := len(buf)/2 - half/2
		mid = buf[start : start+half]
	}
	commas, newlines := refCountCSV(head)
	c2, n2 := refCountCSV(mid)
	commas += c2
	newlines += n2
	return newlines >= 2 && commas >= 2*newlines
}

func refCountCSV(buf []byte) (commas, newlines int) {
	for _, b := range buf {
		switch b {
		case ',':
			commas++
		case '\n':
			newlines++
		}
	}
	return
}

// refSampleFloats is the old stats.SampleFloats: it extracts up to max
// float64 samples from a buffer interpreted per dtype.
func refSampleFloats(buf []byte, dtype stats.DataType, max int) []float64 {
	out := make([]float64, 0, minInt(max, len(buf)))
	switch dtype {
	case stats.TypeInt:
		stride := 4 * maxInt(1, len(buf)/4/max)
		for i := 0; i+4 <= len(buf) && len(out) < max; i += stride {
			out = append(out, float64(int32(binary.LittleEndian.Uint32(buf[i:]))))
		}
	case stats.TypeFloat:
		stride := 4 * maxInt(1, len(buf)/4/max)
		for i := 0; i+4 <= len(buf) && len(out) < max; i += stride {
			f := float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[i:])))
			if !math.IsNaN(f) && !math.IsInf(f, 0) {
				out = append(out, f)
			}
		}
	default:
		stride := maxInt(1, len(buf)/max)
		for i := 0; i < len(buf) && len(out) < max; i += stride {
			out = append(out, float64(buf[i]))
		}
	}
	return out
}

// refMoments summarizes a sample as the old stats.ComputeMoments did.
type refMoments struct {
	N        int
	Mean     float64
	Variance float64 // population variance
	Skewness float64
	Kurtosis float64 // excess kurtosis
	Min, Max float64
}

// refComputeMoments is the old stats.ComputeMoments: the first four
// standardized moments of xs.
func refComputeMoments(xs []float64) refMoments {
	m := refMoments{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
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

// refClassifyDist is the old stats.ClassifyDist (slice-built candidate
// list).
func refClassifyDist(xs []float64) stats.Dist {
	m := refComputeMoments(xs)
	if m.N < 8 || m.Variance == 0 {
		return stats.Uniform
	}
	type candidate struct {
		d        stats.Dist
		skew, ku float64
	}
	cands := []candidate{
		{stats.Uniform, 0, -1.2},
		{stats.Normal, 0, 0},
		{stats.Exponential, 2, 6},
	}
	// Gamma shape from CV when the sample is positive-supported. Gamma(1)
	// IS the exponential and Gamma(k->inf) converges to the normal, so a
	// gamma candidate is only offered when the estimated shape is clearly
	// away from both degenerate corners; otherwise the simpler family wins.
	if m.Min >= 0 && m.Mean > 0 {
		k := (m.Mean * m.Mean) / m.Variance
		if k > 0.05 && k < 30 && (k < 0.75 || k > 1.3) {
			cands = append(cands, candidate{stats.Gamma, 2 / math.Sqrt(k), 6 / k})
		}
	}
	best := stats.Uniform
	bestScore := math.Inf(1)
	for _, c := range cands {
		ds := m.Skewness - c.skew
		dk := (m.Kurtosis - c.ku) / 3 // kurtosis is noisier; downweight
		score := ds*ds + dk*dk
		// Gamma with k near 1 duplicates exponential and k large duplicates
		// normal; prefer the simpler family on near-ties.
		if c.d == stats.Gamma {
			score *= 1.05
		}
		if score < bestScore {
			bestScore = score
			best = c.d
		}
	}
	return best
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
