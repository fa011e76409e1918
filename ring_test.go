package hcompress

import (
	"reflect"
	"testing"
)

// TestRingBoundOrderDrain pins the one ring behind Audits, SlowOps and
// FaultEvents: it keeps the newest cap records, drains them oldest first,
// and holds no memory once drained.
func TestRingBoundOrderDrain(t *testing.T) {
	seq := func(lo, hi int) []int { // lo..hi-1
		var s []int
		for v := lo; v < hi; v++ {
			s = append(s, v)
		}
		return s
	}
	const bound = 4
	for _, tc := range []struct {
		name string
		cap  int
		n    int   // records 0..n-1 appended one by one
		want []int // what drain returns
	}{
		{"cap 0 holds nothing", 0, 5, nil},
		{"under cap", bound, 3, seq(0, 3)},
		{"exactly cap", bound, bound, seq(0, bound)},
		{"one past cap", bound, bound + 1, seq(1, bound+1)},
		{"3x cap", bound, 3 * bound, seq(2*bound, 3*bound)},
		{"3x cap and a half", bound, 3*bound + 2, seq(2*bound+2, 3*bound+2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := ring[int]{cap: tc.cap}
			for v := 0; v < tc.n; v++ {
				r.append(v)
				if len(r.buf) > tc.cap {
					t.Fatalf("after %d appends the ring holds %d records, bound is %d", v+1, len(r.buf), tc.cap)
				}
			}
			if got := r.drain(); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("drain returned %v, want %v", got, tc.want)
			}
			if r.buf != nil || r.start != 0 {
				t.Fatalf("drained ring still holds buf=%v start=%d", r.buf, r.start)
			}
			if got := r.drain(); len(got) != 0 {
				t.Fatalf("second drain returned %v, want nothing", got)
			}
			// The ring is reusable after a drain, and a multi-record append
			// (how audits arrive) obeys the same bound and order.
			r.append(seq(100, 100+bound+2)...)
			want := seq(102, 100+bound+2)
			if tc.cap == 0 {
				want = nil
			}
			if got := r.drain(); !reflect.DeepEqual(got, want) {
				t.Fatalf("after a drain: got %v, want %v", got, want)
			}
		})
	}
}
