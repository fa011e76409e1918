package hcompress

import "sync"

// ring is a bounded, self-locked log that is read by draining it: the
// buffer behind Audits, SlowOps and FaultEvents. It holds the newest cap
// records (a cap of zero holds nothing). The buffer grows by append until
// it is full and is circular from then on, so a steady-state append
// overwrites the oldest slot and never reallocates or shifts — trimming a
// slice on every append instead cost a full-ring copy per operation once
// warm, which dominated telemetry overhead on the write path.
type ring[T any] struct {
	mu    sync.Mutex
	buf   []T // len(buf) <= cap
	start int // index of the oldest record; nonzero only once full
	cap   int
}

func (r *ring[T]) append(recs ...T) {
	if r.cap <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range recs {
		if len(r.buf) < r.cap {
			r.buf = append(r.buf, recs[i])
		} else {
			r.buf[r.start] = recs[i]
			r.start = (r.start + 1) % r.cap
		}
	}
}

// drain returns the buffered records oldest first and empties the ring,
// releasing the backing array so an idle ring holds no memory.
func (r *ring[T]) drain() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.buf
	if r.start > 0 { // wrapped: the oldest record is mid-buffer
		out = append(append(make([]T, 0, len(r.buf)), r.buf[r.start:]...), r.buf[:r.start]...)
	}
	r.buf, r.start = nil, 0
	return out
}
