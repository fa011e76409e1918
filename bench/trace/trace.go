// Package trace is the benchmark's outside-in span recorder: the
// benchmark wraps every call it makes into the program's root API in a
// span, keeps the spans in memory, and writes them out as JSON lines when
// the run ends. Nothing here touches the program under test.
package trace

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is 0 on a request's root span.
type Span struct {
	ID     int64
	Parent int64
	Req    int64
	Name   string
	Layer  string
	Start  int64 // ns since the recorder's epoch
	End    int64
}

// Recorder collects spans. A nil *Recorder records nothing, so measured
// (untraced) reps share the traced rep's code path at the cost of one nil
// check per call.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// New starts a recorder whose clock reads zero now.
func New() *Recorder {
	return &Recorder{epoch: time.Now(), spans: make([]Span, 0, 1<<16)}
}

// At converts a wall-clock reading to the recorder's clock.
func (r *Recorder) At(t time.Time) int64 {
	if r == nil {
		return 0
	}
	return int64(t.Sub(r.epoch))
}

// Add records a finished span and returns its ID (0 on a nil recorder).
func (r *Recorder) Add(parent, req int64, name, layer string, start, end int64) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Layer: layer, Start: start, End: end})
	r.mu.Unlock()
	return id
}

// Begin opens a span whose children need its ID before it ends; End
// closes it.
func (r *Recorder) Begin(parent, req int64, name, layer string, start int64) int64 {
	return r.Add(parent, req, name, layer, start, start)
}

// End closes a span opened by Begin.
func (r *Recorder) End(id, end int64) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// Spans returns the recorded spans in ID order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// LayerTime sums one layer's spans: Total is the time inside the layer's
// spans, Self is Total minus the part its child spans cover.
type LayerTime struct {
	Spans int64
	Total int64
	Self  int64
}

// SelfTimes attributes every span's duration to its layer, net of the
// interval its children cover (overlapping children count once).
func (r *Recorder) SelfTimes() map[string]LayerTime {
	spans := r.Spans()
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]LayerTime)
	for _, s := range spans {
		lt := out[s.Layer]
		dur := s.End - s.Start
		lt.Spans++
		lt.Total += dur
		lt.Self += dur - covered(kids[s.ID], s.Start, s.End)
		out[s.Layer] = lt
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	at := lo
	for _, iv := range ivs {
		a, b := max(iv[0], at), min(iv[1], hi)
		if b > a {
			sum += b - a
			at = b
		}
	}
	return sum
}

// WriteJSONL writes one JSON object per span to path.
func (r *Recorder) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range r.Spans() {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"req":%d,"name":%q,"layer":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.ID, s.Parent, s.Req, s.Name, s.Layer, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
