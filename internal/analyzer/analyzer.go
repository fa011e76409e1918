// Package analyzer implements HCompress's Input Analyzer (IA): fast,
// sampling-based inference of a buffer's data type, content distribution,
// and container format (§IV-C). The IA never scans whole buffers — each
// detector reads a fixed budget of samples, mirroring the paper's claim
// that analysis is "extremely fast and accurate" because most inputs are
// either self-described or statistically obvious.
package analyzer

import (
	"bytes"
	"encoding/binary"
	"math"

	"hcompress/internal/stats"
)

// Format is the container format the IA recognizes.
type Format int

const (
	formatRaw Format = iota
	formatH5Lite
	formatCSV
	formatJSON
)

var formatNames = [...]string{"raw", "h5lite", "csv", "json"}

func (f Format) String() string {
	if f < 0 || int(f) >= len(formatNames) {
		return "unknown"
	}
	return formatNames[f]
}

// h5liteMagic is the 4-byte superblock signature of the h5lite container
// (see internal/h5lite); the IA uses it for the self-described fast path.
var h5liteMagic = [4]byte{'H', '5', 'L', 'T'}

// Result is the IA's verdict on one buffer.
type Result struct {
	Type   stats.DataType
	Dist   stats.Dist
	Format Format
	Size   int
}

// Hint carries externally known attributes (e.g. parsed from a
// self-describing container) that short-circuit detection.
type Hint struct {
	Type *stats.DataType
	Dist *stats.Dist
}

// Every detector has a fixed budget, so analysis cost is independent of
// buffer size. The sampling detectors stride across the WHOLE buffer (a
// text tail in a large file is still seen); only looksCSV reads
// contiguous bytes.
const (
	maxScanBytes  = 64 << 10 // contiguous bytes looksCSV counts in
	textSamples   = 4096     // byte positions inspected by looksTextual
	typeSamples   = 4096     // 32-bit words inspected by detectType
	distSamples   = 2048     // numeric samples for distribution classification
	printableFrac = 0.92
)

// Analyze inspects buf and infers its attributes.
func Analyze(buf []byte) Result {
	return AnalyzeWithHint(buf, nil)
}

// AnalyzeWithHint is Analyze with a self-described fast path: any
// attribute present in hint is trusted, skipping detection (the paper's
// "metadata parsing of self-described portable data representations").
// A fully-hinted buffer skips the sampling sniffers entirely — only the
// O(1) container-magic check runs, so a hinted Analyze costs a few
// nanoseconds regardless of buffer size.
//
// The unhinted path is one pass per detector and allocates nothing: the
// textual test runs once and feeds both format and type detection, the
// word tests are integer compares on the raw bit patterns, and the
// distribution samples live in a stack array.
func AnalyzeWithHint(buf []byte, hint *Hint) Result {
	if hint != nil && hint.Type != nil && hint.Dist != nil {
		r := Result{Size: len(buf), Type: *hint.Type, Dist: *hint.Dist}
		if hasH5LiteMagic(buf) {
			r.Format = formatH5Lite
		}
		return r
	}
	textual := looksTextual(buf)
	r := Result{Size: len(buf), Format: detectFormat(buf, textual)}
	if hint != nil && hint.Type != nil {
		r.Type = *hint.Type
	} else {
		r.Type = detectType(buf, textual)
	}
	if hint != nil && hint.Dist != nil {
		r.Dist = *hint.Dist
		return r
	}
	var samples [distSamples]float64
	r.Dist = stats.ClassifyDist(stats.SampleFloats(samples[:], buf, r.Type))
	return r
}

func hasH5LiteMagic(buf []byte) bool {
	return len(buf) >= 4 && [4]byte(buf[:4]) == h5liteMagic
}

// detectFormat sniffs the container format; textual is looksTextual(buf).
func detectFormat(buf []byte, textual bool) Format {
	if hasH5LiteMagic(buf) {
		return formatH5Lite
	}
	// Leading-whitespace-tolerant JSON sniff.
	for _, b := range buf[:min(len(buf), 64)] {
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		case '{', '[':
			if textual {
				return formatJSON
			}
			return formatRaw
		}
		break
	}
	if textual && looksCSV(buf) {
		return formatCSV
	}
	return formatRaw
}

// wordStride returns the 4-byte-aligned step that visits at most
// typeSamples 32-bit words of an n-byte buffer.
func wordStride(n int) int {
	words := n / 4
	if words <= typeSamples {
		return 4
	}
	return ((words + typeSamples - 1) / typeSamples) * 4
}

// A 32-bit word is a plausible measurement float when it is ±0 or its
// magnitude lies strictly inside (1e-20, 1e20) after the exact
// float32→float64 widening. Positive float32 values order like their
// bit patterns, so that is a range test on the pattern with the sign
// cleared: floatLo is the largest pattern whose value is <= 1e-20 and
// floatHi the smallest whose value is >= 1e20. Denormals fall below
// floatLo; Inf and every NaN sit at or above 0x7F800000 > floatHi.
var floatLo, floatHi = floatBounds()

func floatBounds() (lo, hi uint32) {
	val := func(p uint32) float64 { return float64(math.Float32frombits(p)) }
	lo = math.Float32bits(float32(1e-20))
	for val(lo) > 1e-20 {
		lo--
	}
	for val(lo+1) <= 1e-20 {
		lo++
	}
	hi = math.Float32bits(float32(1e20))
	for val(hi) < 1e20 {
		hi++
	}
	for val(hi-1) >= 1e20 {
		hi--
	}
	return lo, hi
}

// wordTests runs detectType's two per-word tests and returns each as 0
// or 1. Every compare is a subtraction of two values below 2^32 done in
// 64 bits, whose sign bit is the borrow, so the loop has no
// data-dependent branch to mispredict on mixed input. lo is floatLo and
// span is floatHi-floatLo-1, hoisted by the caller.
func wordTests(v, lo, span uint32) (floatish, intish int) {
	a := v &^ (1 << 31)
	zero := (uint64(a) - 1) >> 63
	inRange := (uint64(a-lo-1) - uint64(span)) >> 63 // lo < a < hi; a == 0 wraps out of range
	// Plausible int32 measurements cluster near zero relative to the full
	// 32-bit range: -(1<<26) < int32(v) < 1<<26, as one unsigned compare.
	small := (uint64(v+(1<<26-1)) - (1<<27 - 1)) >> 63
	return int(zero | inRange), int(small)
}

// detectType classifies element type from a sub-sample: text, then float32,
// then int32, else opaque binary. The sample strides across the whole
// buffer but reads at most typeSamples words. textual is
// looksTextual(buf).
func detectType(buf []byte, textual bool) stats.DataType {
	if textual {
		return stats.TypeText
	}
	sample := buf[:len(buf)&^3]
	if len(sample) < 4 {
		return stats.TypeBinary
	}
	lo, span := floatLo, floatHi-floatLo-1
	floatish, intish := 0, 0
	stride := wordStride(len(sample))
	total := (len(sample)-4)/stride + 1
	for i := 0; i+4 <= len(sample); i += stride {
		f, n := wordTests(binary.LittleEndian.Uint32(sample[i:]), lo, span)
		floatish += f
		intish += n
	}
	return typeVerdict(floatish, intish, total)
}

// typeVerdict turns detectType's counts of float-like and int-like words
// among total into a type.
func typeVerdict(floatish, intish, total int) stats.DataType {
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

// printable[b] is 1 for the bytes looksTextual counts as text: ASCII
// 0x20..0x7E plus newline, carriage return and tab.
var printable = func() (t [256]uint8) {
	for b := 0x20; b < 0x7F; b++ {
		t[b] = 1
	}
	t['\n'], t['\r'], t['\t'] = 1, 1, 1
	return t
}()

// looksTextual samples byte positions across the whole buffer (at most
// textSamples of them) and checks the printable fraction.
func looksTextual(buf []byte) bool {
	n := len(buf)
	if n == 0 {
		return false
	}
	stride := max(1, (n+textSamples-1)/textSamples)
	count := 0
	for i := 0; i < n; i += stride {
		count += int(printable[buf[i]])
	}
	seen := (n-1)/stride + 1
	return float64(count) >= printableFrac*float64(seen)
}

// looksCSV inspects up to maxScanBytes of contiguous text — the head
// plus, for large buffers, a window from the middle — because the
// comma/newline ratio test needs unbroken runs of lines to be
// meaningful, unlike the strided sampling of the other detectors.
func looksCSV(buf []byte) bool {
	const half = maxScanBytes / 2
	head := buf[:min(len(buf), half)]
	var mid []byte
	if len(buf) > 2*half {
		start := len(buf)/2 - half/2
		mid = buf[start : start+half]
	}
	commas := bytes.Count(head, comma) + bytes.Count(mid, comma)
	newlines := bytes.Count(head, newline) + bytes.Count(mid, newline)
	return newlines >= 2 && commas >= 2*newlines
}

var comma, newline = []byte{','}, []byte{'\n'}
