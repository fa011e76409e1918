package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
)

// DataType enumerates the element types the Input Analyzer infers from raw
// buffers. They match the paper's model inputs ("data-type (e.g., integer)").
type DataType int

const (
	TypeBinary DataType = iota // opaque / high-entropy bytes
	TypeInt                    // little-endian int32 array
	TypeFloat                  // little-endian float32 array
	TypeText                   // ASCII text
	numTypes
)

var typeNames = [...]string{"binary", "int", "float", "text"}

func (t DataType) String() string {
	if t < 0 || int(t) >= len(typeNames) {
		return "unknown"
	}
	return typeNames[t]
}

// AllTypes lists every inferable data type.
func AllTypes() []DataType { return []DataType{TypeBinary, TypeInt, TypeFloat, TypeText} }

// TypeByName resolves a type name.
func TypeByName(name string) (DataType, bool) {
	for i, n := range typeNames {
		if n == name {
			return DataType(i), true
		}
	}
	return TypeBinary, false
}

// words used to synthesize text-typed buffers.
var loremWords = []string{
	"particle", "simulation", "storage", "hierarchy", "compression",
	"bandwidth", "latency", "checkpoint", "timestep", "buffer", "tier",
	"velocity", "energy", "density", "pressure", "field", "plasma", "data",
	"the", "of", "and", "in", "to", "a", "is", "for", "with", "on",
}

// GenBuffer synthesizes n bytes of data with the given element type and
// content distribution, deterministically from seed. It is the common
// workload generator used by the profiler, the CCP tests, and the
// synthetic scientific kernels.
func GenBuffer(dtype DataType, dist Dist, n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	s := Sampler{Dist: dist, Shape: 2, Scale: 1000}
	out := make([]byte, 0, n)
	switch dtype {
	case TypeInt:
		for len(out)+4 <= n {
			v := uint32(int32(s.Sample(rng)))
			out = binary.LittleEndian.AppendUint32(out, v)
		}
	case TypeFloat:
		// Scientific float data carries limited true precision; like
		// checkpointed simulation fields, quantize the mantissa (clear the
		// low 12 bits, ~3 significant decimal digits kept). The marginal
		// distribution is unchanged to within 0.03%, but the byte stream
		// gains the redundancy real VPIC-style output has — without this,
		// IID full-precision floats are incompressible by construction and
		// no codec could ever be distinguished on them.
		for len(out)+4 <= n {
			v := math.Float32bits(float32(s.Sample(rng))) &^ 0xFFF
			out = binary.LittleEndian.AppendUint32(out, v)
		}
	case TypeText:
		for len(out) < n {
			idx := int(s.Sample(rng)) % len(loremWords)
			if idx < 0 {
				idx += len(loremWords)
			}
			w := loremWords[idx]
			out = append(out, w...)
			out = append(out, ' ')
		}
	default: // TypeBinary: quantized variates -> bytes, entropy set by dist
		// Clamp rather than wrap so the byte histogram keeps the
		// distribution's shape (wrapping modulo 256 would whiten it and
		// make every binary buffer equally incompressible).
		for len(out) < n {
			v := int(s.Sample(rng) * 0.25)
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			out = append(out, byte(v))
		}
	}
	// Pad/trim to exactly n.
	for len(out) < n {
		out = append(out, 0)
	}
	return out[:n]
}

// SampleFloats fills dst with up to len(dst) float64 samples strided
// across buf interpreted per dtype, and returns the filled prefix; used
// by the distribution classifier. The caller owns dst, so a fixed-size
// array on its stack makes sampling allocation-free.
func SampleFloats(dst []float64, buf []byte, dtype DataType) []float64 {
	limit := len(dst)
	if limit == 0 {
		return dst
	}
	n := 0
	switch dtype {
	case TypeInt:
		stride := 4 * max(1, len(buf)/4/limit)
		for i := 0; i+4 <= len(buf) && n < limit; i += stride {
			dst[n] = float64(int32(binary.LittleEndian.Uint32(buf[i:])))
			n++
		}
	case TypeFloat:
		stride := 4 * max(1, len(buf)/4/limit)
		for i := 0; i+4 <= len(buf) && n < limit; i += stride {
			f := float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[i:])))
			if !math.IsNaN(f) && !math.IsInf(f, 0) {
				dst[n] = f
				n++
			}
		}
	default:
		stride := max(1, len(buf)/limit)
		for i := 0; i < len(buf) && n < limit; i += stride {
			dst[n] = float64(buf[i])
			n++
		}
	}
	return dst[:n]
}
