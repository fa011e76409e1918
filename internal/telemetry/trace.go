package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
)

// Sink serializes trace records — spans, decision audits — to a single
// writer as JSON Lines. Records passed to one Emit call are written
// contiguously under the sink lock, so one operation's spans and audits
// never interleave with another's even under concurrent clients.
//
// Records must marshal deterministically (structs, no maps) and must
// carry only virtual-clock quantities when export determinism matters:
// the CI contract is that the same serial workload produces byte-
// identical JSONL regardless of the worker-pool width.
//
// A nil *Sink drops everything, so callers emit unconditionally.
type Sink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewSink wraps w; a nil writer yields a nil (drop-everything) sink.
func NewSink(w io.Writer) *Sink {
	if w == nil {
		return nil
	}
	return &Sink{w: w}
}

// appender is the fast-path encoding hook: a record that knows how to
// append itself as one JSON object skips encoding/json's reflection
// walk entirely. The hot per-operation records (spans, audits)
// implement it; rare records (fault events) fall back to json.Marshal.
// Implementations must produce the same bytes encoding/json would, so
// a record kind can move between paths without changing the export.
type appender interface {
	AppendJSON(dst []byte) []byte
}

// emitBufs recycles Emit's encode buffers: one batch per operation on
// the hot path makes this allocation worth pooling.
var emitBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// Emit writes each record as one JSON line. Marshal or write failures
// drop the record — tracing is best-effort and must never fail an
// operation that already succeeded.
//
// Encoding happens outside the sink lock: concurrent operations encode
// their span batches in parallel and only the final write is
// serialized, so the sink never becomes the pipeline's convoy point.
// The batch lands in one Write call, preserving the contiguity
// contract (and sparing slow writers per-record syscalls).
func (s *Sink) Emit(records ...any) {
	if s == nil {
		return
	}
	bp := emitBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	for _, rec := range records {
		if a, ok := rec.(appender); ok {
			buf = append(a.AppendJSON(buf), '\n')
			continue
		}
		b, err := json.Marshal(rec)
		if err != nil {
			continue
		}
		buf = append(append(buf, b...), '\n')
	}
	if len(buf) > 0 {
		s.mu.Lock()
		_, _ = s.w.Write(buf)
		s.mu.Unlock()
	}
	*bp = buf[:0]
	emitBufs.Put(bp)
}

// EmitBatch is the zero-boxing variant of Emit: fill appends complete
// JSON lines ('\n'-terminated) to the buffer it is handed, and the
// result lands in one Write under the sink lock. The hot per-operation
// paths use this to emit a whole span tree plus audits without the
// []any conversion Emit's variadic signature forces.
func (s *Sink) EmitBatch(fill func(dst []byte) []byte) {
	if s == nil {
		return
	}
	bp := emitBufs.Get().(*[]byte)
	buf := fill((*bp)[:0])
	if len(buf) > 0 {
		s.mu.Lock()
		_, _ = s.w.Write(buf)
		s.mu.Unlock()
	}
	*bp = buf[:0]
	emitBufs.Put(bp)
}

// The append helpers below are the building blocks for appender
// implementations. They reproduce encoding/json's output byte for byte
// — same float formatting, same string escaping (including the default
// HTML-safe escapes) — so hand-encoded and reflected records are
// indistinguishable in the export.

// jsonPlain[c] reports that byte c is copied into a JSON string as is:
// everything from 0x20 up except the quote, the backslash and the three
// characters encoding/json escapes for HTML safety.
var jsonPlain = func() (t [256]bool) {
	for c := 0x20; c < 256; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// AppendJSONString appends s as a quoted, escaped JSON string.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	from := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if jsonPlain[c] {
			continue
		}
		dst = append(dst, s[from:i]...)
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			const hex = "0123456789abcdef"
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
		from = i + 1
	}
	dst = append(dst, s[from:]...)
	return append(dst, '"')
}

// appendJSONFloat appends v in encoding/json's float format: %g-style
// with 'e' notation outside [1e-6, 1e21) and single-digit negative
// exponents unpadded. Non-finite values (which encoding/json rejects)
// encode as 0.
func appendJSONFloat(dst []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(dst, '0')
	}
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		// encoding/json trims the padded exponent: 1e-06 -> 1e-6.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// FloatMemo formats each distinct float once per encode buffer. One
// operation's records repeat a handful of values (zero-width markers at
// the op's start, leaves that abut end to start, the same codec and I/O
// seconds on a span and its audit), and shortest-round-trip formatting
// is the most expensive step of encoding them: the first Append of a
// value formats it and remembers where the digits landed in dst, later
// Appends of the same bits copy them. The output is byte-identical to
// appendJSONFloat. A memo belongs to one growing buffer; the zero value
// is ready, and a nil memo formats every time.
type FloatMemo struct {
	n    int // values recorded so far; slot n%len is overwritten next
	bits [16]uint64
	off  [16]int32
	size [16]uint8
}

// Append appends v to dst as appendJSONFloat would.
func (m *FloatMemo) Append(dst []byte, v float64) []byte {
	if m == nil {
		return appendJSONFloat(dst, v)
	}
	b := math.Float64bits(v)
	for i := 0; i < min(m.n, len(m.bits)); i++ {
		if m.bits[i] == b {
			off := int(m.off[i])
			return append(dst, dst[off:off+int(m.size[i])]...)
		}
	}
	start := len(dst)
	dst = appendJSONFloat(dst, v)
	i := m.n % len(m.bits)
	m.bits[i], m.off[i], m.size[i] = b, int32(start), uint8(len(dst)-start)
	m.n++
	return dst
}

// AppendJSONInt appends v as a JSON number.
func AppendJSONInt(dst []byte, v int64) []byte {
	return strconv.AppendInt(dst, v, 10)
}
