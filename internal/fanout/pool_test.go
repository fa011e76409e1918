package fanout

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hcompress/internal/bufpool"
)

func TestPoolRunsEveryItem(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPool(workers)
		for _, n := range []int{1, 2, 7, 64, 1000} {
			hits := make([]atomic.Int32, n)
			err := p.Run(n, func(s *bufpool.Scratch, i int) error {
				if s == nil {
					t.Error("nil scratch")
				}
				hits[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: item %d ran %d times", workers, n, i, got)
				}
			}
		}
		p.Close()
	}
}

func TestPoolReturnsLowestIndexedError(t *testing.T) {
	e3, e7 := errors.New("three"), errors.New("seven")
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		var ran atomic.Int32
		err := p.Run(10, func(_ *bufpool.Scratch, i int) error {
			ran.Add(1)
			switch i {
			case 3:
				return e3
			case 7:
				return e7
			}
			return nil
		})
		if err != e3 {
			t.Errorf("workers=%d: got %v, want the lowest-indexed error %v", workers, err, e3)
		}
		if got := ran.Load(); got != 10 {
			t.Errorf("workers=%d: %d items ran, want all 10 despite errors", workers, got)
		}
		p.Close()
	}
}

func TestPoolNilAndZeroItems(t *testing.T) {
	var p *Pool
	n := 0
	if err := p.Run(3, func(_ *bufpool.Scratch, _ int) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("nil pool ran %d items, want 3 inline", n)
	}
	p.Close() // must not panic
	q := NewPool(2)
	defer q.Close()
	if err := q.Run(0, func(_ *bufpool.Scratch, _ int) error { t.Error("ran"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestNilPoolRunsInline pins the contract the Compression Manager relies
// on when it is built without a pool (the figure harness): a nil *Pool
// runs every item, in index order, on the caller's goroutine, with one
// scratch, and reports the lowest-indexed error.
func TestNilPoolRunsInline(t *testing.T) {
	goroutine := func() string { // "goroutine N [running]:"
		var buf [64]byte
		line, _, _ := strings.Cut(string(buf[:runtime.Stack(buf[:], false)]), "\n")
		return line
	}
	e3, e7 := errors.New("three"), errors.New("seven")
	caller := goroutine()
	var p *Pool
	var order []int
	var scratch *bufpool.Scratch
	err := p.RunClass(Batch, 10, func(s *bufpool.Scratch, i int) error {
		if g := goroutine(); g != caller {
			t.Errorf("item %d ran on %q, want the caller's %q", i, g, caller)
		}
		if s == nil || (scratch != nil && s != scratch) {
			t.Errorf("item %d: scratch %p, want the one non-nil scratch %p", i, s, scratch)
		}
		scratch = s
		order = append(order, i)
		switch i {
		case 3:
			return e3
		case 7:
			return e7
		}
		return nil
	})
	if err != e3 {
		t.Errorf("got %v, want the lowest-indexed error %v", err, e3)
	}
	if len(order) != 10 {
		t.Fatalf("ran %d items, want all 10 despite errors", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("run order %v, want index order", order)
		}
	}
}

// TestPoolInterleavesJobs checks the round-robin claim order: with a big
// job already queued and every worker artificially parked, a small job
// submitted later must not wait for the big one to finish.
func TestPoolInterleavesJobs(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	const bigN = 256
	var wg sync.WaitGroup
	wg.Add(2)
	release := make(chan struct{})
	var bigDone, smallDone atomic.Int64
	go func() {
		defer wg.Done()
		_ = p.Run(bigN, func(_ *bufpool.Scratch, i int) error {
			<-release
			time.Sleep(100 * time.Microsecond)
			return nil
		})
		bigDone.Store(time.Now().UnixNano())
	}()
	// Give the big job time to be queued before the small one arrives.
	time.Sleep(10 * time.Millisecond)
	go func() {
		defer wg.Done()
		_ = p.Run(4, func(_ *bufpool.Scratch, i int) error {
			<-release
			return nil
		})
		smallDone.Store(time.Now().UnixNano())
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if smallDone.Load() > bigDone.Load() {
		t.Errorf("small job finished after the big one: round-robin interleaving is not happening")
	}
}

func TestPoolCloseStopsWorkersAndRunsInline(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(4)
	if err := p.Run(16, func(_ *bufpool.Scratch, _ int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines alive after Close, started with %d", got, before)
	}
	// Run after Close still executes, inline.
	n := 0
	if err := p.Run(5, func(_ *bufpool.Scratch, _ int) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("post-Close Run executed %d items, want 5", n)
	}
}

// TestPoolConcurrentSubmitters hammers one pool from many goroutines and
// checks every item of every job runs exactly once.
func TestPoolConcurrentSubmitters(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const subs = 8
	const jobsPer = 50
	var wg sync.WaitGroup
	for g := 0; g < subs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < jobsPer; j++ {
				n := 1 + (g+j)%33
				var count atomic.Int64
				if err := p.Run(n, func(_ *bufpool.Scratch, _ int) error {
					count.Add(1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
				if got := count.Load(); got != int64(n) {
					t.Errorf("job ran %d items, want %d", got, n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestChunkFor(t *testing.T) {
	cases := []struct{ n, workers, want int }{
		{1, 4, 1},
		{15, 4, 1},
		{64, 4, 4},
		{4096, 4, 32}, // capped so interleaving survives
		{100, 1, 25},
	}
	for _, c := range cases {
		if got := chunkFor(c.n, c.workers); got != c.want {
			t.Errorf("chunkFor(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}
