// Package fanout is the shared worker pool the Compression Manager fans
// per-sub-task codec work across. Results stay deterministic: callers
// index results by item, and a run reports the error of the
// lowest-indexed failing item regardless of goroutine scheduling,
// exactly what a serial loop would have returned.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hcompress/internal/bufpool"
	"hcompress/internal/telemetry"
)

// Pool is a shared, persistent worker pool: a fixed set of long-lived
// workers, each with a codec Scratch pinned for its whole lifetime,
// executing work from every in-flight request. Requests submit a
// fixed-size batch of items with Run; items are claimed in chunks, and
// claiming rotates round-robin across the in-flight jobs, so one large
// request cannot starve small ones.
//
// The submitting goroutine helps execute its own items while it waits,
// so a request always makes progress even when every worker is busy
// with other requests, and total CPU concurrency stays bounded by
// workers + in-flight requests rather than workers × requests.
//
// Jobs carry a scheduling Class: workers claim Interactive jobs before
// Batch jobs, so latency-sensitive reads overtake queued bulk writes
// (claiming stays round-robin within a class). A submitting goroutine
// always helps its own job regardless of class, so a Batch submission
// still makes progress under an Interactive flood.
//
// A Pool with width 1 spawns no goroutines at all: Run executes inline,
// preserving the fully-serial Config.Parallelism = 1 contract.
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	jobs    [numClasses][]*poolJob // in-flight jobs with unclaimed items, by class
	rr      [numClasses]int        // round-robin cursor into each class's jobs
	queued  int                    // items submitted but not yet claimed
	closed  bool
	workers int
	wg      sync.WaitGroup

	// Telemetry (nil when off; instrument methods no-op on nil).
	depth *telemetry.Gauge
	busy  *telemetry.Gauge
	wait  *telemetry.Histogram
	runs  *telemetry.Counter
}

// poolJob is one Run call's batch of items.
type poolJob struct {
	fn      func(s *bufpool.Scratch, i int) error
	n       int
	next    int // next unclaimed item; guarded by Pool.mu
	chunk   int
	cls     Class
	pending atomic.Int64
	errs    []error       // indexed by item; disjoint writers, read after done
	done    chan struct{} // buffered(1): the last finisher sends one token
	enq     time.Time
	timed   bool
}

// jobPool recycles job shells (and their errs slices and done channels)
// so steady-state Run calls allocate nothing.
var jobPool = sync.Pool{New: func() any { return &poolJob{done: make(chan struct{}, 1)} }}

// NewPool starts a pool of the given width; workers < 1 selects
// GOMAXPROCS. Close must be called to stop the workers.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	if workers > 1 {
		p.wg.Add(workers)
		for i := 0; i < workers; i++ {
			go p.worker()
		}
	}
	return p
}

// SetTelemetry registers the pool's instruments on reg: queue depth,
// queue wait, and jobs submitted. Like the other SetTelemetry hooks it
// is a construction-time option — call it before the pool is shared;
// a nil registry leaves telemetry off.
func (p *Pool) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	p.depth = reg.Gauge("hc_pool_queued", "sub-tasks submitted to the shared worker pool and not yet claimed")
	p.busy = reg.Gauge("hc_pool_workers_busy", "goroutines (workers and helping submitters) currently executing pool chunks")
	p.wait = reg.Histogram("hc_pool_queue_wait_seconds", "time from job submission to each of its work spans starting", telemetry.SecondsBuckets)
	p.runs = reg.Counter("hc_pool_jobs_total", "jobs submitted to the shared worker pool")
}

// chunkFor sizes the claim quantum: large jobs hand out multi-item
// chunks to keep lock traffic low, but never so large that round-robin
// interleaving degenerates into run-to-completion.
func chunkFor(n, workers int) int {
	c := n / (workers * 4)
	if c < 1 {
		return 1
	}
	if c > 32 {
		return 32
	}
	return c
}

// Run executes fn(scratch, i) for every i in [0, n) and blocks until all
// items complete. The scratch passed to fn is owned by the executing
// worker for the duration of the call — per-worker state needs no
// locking. All items are attempted even when one fails; the returned
// error is the lowest-indexed one, matching serial execution. A nil,
// width-1, or closed pool runs inline.
// Run submits at Interactive priority; RunClass selects the class.
func (p *Pool) Run(n int, fn func(s *bufpool.Scratch, i int) error) error {
	return p.RunClass(Interactive, n, fn)
}

// RunClass is Run at an explicit scheduling class: Batch jobs wait while
// Interactive work is queued; everything else about Run's contract holds.
func (p *Pool) RunClass(cls Class, n int, fn func(s *bufpool.Scratch, i int) error) error {
	if n <= 0 {
		return nil
	}
	if p == nil || p.workers <= 1 || n == 1 {
		return runInline(n, fn)
	}
	if cls < 0 || cls >= numClasses {
		cls = Interactive
	}
	j := jobPool.Get().(*poolJob)
	j.fn, j.n, j.next, j.cls = fn, n, 0, cls
	j.chunk = chunkFor(n, p.workers)
	j.pending.Store(int64(n))
	if cap(j.errs) < n {
		j.errs = make([]error, n)
	} else {
		j.errs = j.errs[:n]
		for i := range j.errs {
			j.errs[i] = nil
		}
	}
	j.timed = p.wait != nil
	if j.timed {
		j.enq = time.Now()
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		j.fn = nil
		jobPool.Put(j)
		return runInline(n, fn)
	}
	p.jobs[cls] = append(p.jobs[cls], j)
	p.queued += n
	p.depth.Set(float64(p.queued))
	p.runs.Inc()
	p.mu.Unlock()
	p.cond.Broadcast()

	p.help(j)
	<-j.done

	var first error
	for _, err := range j.errs {
		if err != nil {
			first = err
			break
		}
	}
	j.fn = nil
	jobPool.Put(j)
	return first
}

// runInline is the serial fallback: one borrowed scratch, items in order.
func runInline(n int, fn func(s *bufpool.Scratch, i int) error) error {
	s := bufpool.GetScratch()
	defer bufpool.PutScratch(s)
	var first error
	for i := 0; i < n; i++ {
		if err := fn(s, i); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// help lets the submitting goroutine execute chunks of its own job while
// the pool's workers interleave it with every other in-flight request.
func (p *Pool) help(j *poolJob) {
	var s *bufpool.Scratch
	for {
		p.mu.Lock()
		lo := j.next
		if lo >= j.n {
			p.mu.Unlock()
			break
		}
		hi := lo + j.chunk
		if hi > j.n {
			hi = j.n
		}
		j.next = hi
		if hi >= j.n {
			// Taking the final chunk: drop the job from its class queue
			// now. The shell is recycled the moment Run returns, so no
			// stale pointer may remain where a worker could read it.
			q := p.jobs[j.cls]
			for idx := range q {
				if q[idx] == j {
					p.jobs[j.cls] = append(q[:idx], q[idx+1:]...)
					if p.rr[j.cls] > idx {
						p.rr[j.cls]--
					}
					break
				}
			}
		}
		p.queued -= hi - lo
		p.depth.Set(float64(p.queued))
		p.mu.Unlock()
		if s == nil {
			s = bufpool.GetScratch()
		}
		p.runSpan(j, s, lo, hi)
	}
	if s != nil {
		bufpool.PutScratch(s)
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	s := bufpool.GetScratch()
	defer bufpool.PutScratch(s)
	for {
		j, lo, hi := p.claim()
		if j == nil {
			return
		}
		p.runSpan(j, s, lo, hi)
	}
}

// claim blocks until work is available and takes the next chunk:
// Interactive jobs first, then Batch, rotating round-robin across the
// in-flight jobs within the winning class. It returns a nil job only
// when the pool is closed and every queued item has been claimed.
func (p *Pool) claim() (*poolJob, int, int) {
	p.mu.Lock()
	for {
		for cls := Class(0); cls < numClasses; cls++ {
			for len(p.jobs[cls]) > 0 {
				if p.rr[cls] >= len(p.jobs[cls]) {
					p.rr[cls] = 0
				}
				j := p.jobs[cls][p.rr[cls]]
				if j.next >= j.n { // drained by its submitter's help loop
					p.jobs[cls] = append(p.jobs[cls][:p.rr[cls]], p.jobs[cls][p.rr[cls]+1:]...)
					continue
				}
				lo := j.next
				hi := lo + j.chunk
				if hi >= j.n {
					hi = j.n
					j.next = j.n
					p.jobs[cls] = append(p.jobs[cls][:p.rr[cls]], p.jobs[cls][p.rr[cls]+1:]...)
				} else {
					j.next = hi
					p.rr[cls]++
				}
				p.queued -= hi - lo
				p.depth.Set(float64(p.queued))
				p.mu.Unlock()
				return j, lo, hi
			}
		}
		if p.closed {
			p.mu.Unlock()
			return nil, 0, 0
		}
		p.cond.Wait()
	}
}

// runSpan executes one claimed chunk and signals job completion when it
// finishes the last outstanding item.
func (p *Pool) runSpan(j *poolJob, s *bufpool.Scratch, lo, hi int) {
	if j.timed {
		p.wait.Observe(time.Since(j.enq).Seconds())
	}
	p.busy.Add(1)
	defer p.busy.Add(-1)
	for i := lo; i < hi; i++ {
		if err := j.fn(s, i); err != nil {
			j.errs[i] = err
		}
	}
	if j.pending.Add(int64(lo-hi)) == 0 {
		j.done <- struct{}{}
	}
}

// Close stops the workers after every already-submitted job completes.
// Run calls issued after Close execute inline, so Close never strands a
// caller; it is idempotent.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}
