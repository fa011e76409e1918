// Package readcache is the read-path accelerator's hot-block cache: an
// admission-controlled, refcounted LRU of decompressed payloads keyed by
// task. It is the symmetric complement of the background demoter — the
// demoter cools overfull tiers by moving compressed blobs down the
// hierarchy; the cache warms hot keys by keeping their *decompressed*
// bytes in DRAM so a repeat read skips the tier walk and the codec
// entirely.
//
// Ownership model: every cached payload is a bufpool arena buffer carrying
// an atomic reference count. The cache holds one reference while the entry
// is resident; every Get hands the caller a pin (a release func) that
// holds another. The buffer returns to the arena exactly once, when the
// last reference drops — so a Report handed to a caller survives a
// concurrent invalidation (overwrite, delete, demotion, health flip) and
// Release never double-frees.
//
// The hot set is kept by frequency, TinyLFU-style. A two-generation touch
// filter counts each key's reads over a sliding window of touches: a key
// read fewer than MinTouches times never opens a fill, and a fill that
// would evict the LRU victim is refused when the victim has more recent
// reads than the newcomer (the victim then moves to the front; on a tie
// the newcomer wins, so among equals the cache is a plain LRU). Fills are
// registered as pending tokens so an invalidation that races a fill in
// flight aborts it — stale bytes can never re-enter the cache after an
// overwrite.
//
// The prefetcher's one job is sequential readahead, which demand reads
// cannot do: accesses to keys ending in a decimal index ("blk-17") are
// tracked as ascending runs per key prefix, and a run of minRun keys
// queues its next keys as candidates. A readahead fill is scored with the
// recent reads of the run key that predicted it, so a scan still warms
// its next keys but cannot displace keys read more often.
//
// The cache is a client-side DRAM structure living off the modeled
// timeline: hits cost zero virtual seconds and never touch the store, the
// DES lanes, or the predictor feedback loop.
package readcache

import (
	"strconv"
	"sync"
	"sync/atomic"

	"hcompress/internal/bufpool"
	"hcompress/internal/telemetry"
)

// Meta is the write-time attribution stored next to a cached payload so a
// cache-hit Report can be assembled without consulting the manager.
type Meta struct {
	// Size is the decompressed payload length.
	Size int64
	// Stored is the on-tier compressed footprint at fill time.
	Stored       int64
	DataType     string
	Distribution string
}

// entry is one resident payload. refs counts the cache's own reference
// (1 while resident) plus one per outstanding caller pin; the buffer goes
// back to the arena when refs hits zero.
type entry struct {
	key  string
	data []byte
	meta Meta
	refs atomic.Int32
	// prefetched marks an entry filled ahead of demand; cleared (and
	// counted as a used prefetch) on its first hit.
	prefetched bool
	prev, next *entry // LRU list: head is most recent
}

// unref drops one reference and returns the buffer to the arena when it
// was the last. Lock-free: called both under the cache mutex (eviction,
// invalidation) and without it (caller release).
func (e *entry) unref() {
	if e.refs.Add(-1) == 0 {
		bufpool.Put(e.data)
	}
}

// Fill is a pending-fill token: the right to insert one payload for one
// key, revocable by invalidation. Obtain one with BeginFill (demand path,
// admission-gated) or BeginPrefetch, then Commit or Abort it exactly once.
type Fill struct {
	key string
	// by is the key whose recent reads score the fill against the LRU
	// victim at Commit: key itself on demand, the run key that predicted
	// a readahead fill.
	by       string
	prefetch bool
	aborted  bool
}

// Stats is a point-in-time counter snapshot (Shard.CacheStats surface).
type Stats struct {
	Entries  int
	Bytes    int64
	Capacity int64

	Hits          int64
	Misses        int64
	Admissions    int64
	Rejects       int64 // fills refused: under MinTouches reads, or outranked by the LRU victim
	Evictions     int64
	Invalidations int64

	PrefetchIssued    int64
	PrefetchUsed      int64
	PrefetchFailed    int64
	PrefetchCancelled int64
}

// metrics is the optional telemetry surface; all fields are nil-safe.
type metrics struct {
	hits, misses, admissions, rejects    *telemetry.Counter
	evictions, invalidations             *telemetry.Counter
	pfIssued, pfUsed, pfFailed, pfCancel *telemetry.Counter
	bytes, entries                       *telemetry.Gauge
}

// Policy constants: the touch filter rotates its generations every
// touchWindow touches, so a key's count covers its last one to two
// windows of reads; an ascending run of minRun keys predicts its next.
const (
	touchWindow = 4096
	minRun      = 3
)

// run is the ascending run of one key prefix, extended access by access.
type run struct {
	key    string // the run's latest key, which scores its readahead fills
	last   int64  // index of key
	n      int    // run length ending at last
	queued bool   // prefix waits in Cache.ready
}

// Cache is the per-shard decompressed-block cache. Safe for concurrent
// use; one short mutex guards the map, LRU list, touch filter, pending
// fills, and run table. Payload lifetime is refcounted outside the
// mutex, so holding a pinned buffer never blocks the cache.
type Cache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	entries  map[string]*entry
	head     *entry // LRU: most recently used
	tail     *entry // least recently used

	minTouches int
	// Two-generation touch filter: a key's recent reads are cur[k]+prev[k].
	// Every touchWindow touches the generations rotate, so counts decay and
	// the filter holds at most 2*touchWindow keys, but a hot key's count
	// survives the rotation.
	cur, prev map[string]uint32
	touches   int

	pending map[string][]*Fill

	runs    map[string]run // by key prefix; at most maxRuns
	maxRuns int
	ready   []string // prefixes whose run reached minRun since the last Candidates
	kick    func()

	st Stats
	tm metrics
}

// New builds a cache bounded by capacity bytes. minTouches is the
// admission threshold (reads of a key before it may cache; minimum 1
// caches on the first re-read — i.e. the second touch). maxRuns bounds
// how many key prefixes the run tracker follows at once.
func New(capacity int64, minTouches, maxRuns int) *Cache {
	if minTouches < 1 {
		minTouches = 1
	}
	if maxRuns < 8 {
		maxRuns = 8
	}
	return &Cache{
		capacity:   capacity,
		entries:    make(map[string]*entry),
		minTouches: minTouches,
		cur:        make(map[string]uint32),
		prev:       make(map[string]uint32),
		pending:    make(map[string][]*Fill),
		runs:       make(map[string]run),
		maxRuns:    maxRuns,
		st:         Stats{Capacity: capacity},
	}
}

// OnRun registers kick, called after a Get grows an ascending run to
// minRun keys and so queues readahead candidates. It runs outside the
// cache lock. Set it before the cache is used.
func (c *Cache) OnRun(kick func()) { c.kick = kick }

// SetTelemetry registers the hc_cache_* / hc_prefetch_* instruments on
// reg. Nil reg (telemetry off) leaves every instrument nil — the no-op
// fast path.
func (c *Cache) SetTelemetry(reg *telemetry.Registry) {
	c.tm = metrics{
		hits:          reg.Counter("hc_cache_hits_total", "Read-cache hits."),
		misses:        reg.Counter("hc_cache_misses_total", "Read-cache misses."),
		admissions:    reg.Counter("hc_cache_admissions_total", "Payloads admitted into the read cache."),
		rejects:       reg.Counter("hc_cache_rejects_total", "Fills rejected by the frequency admission gate."),
		evictions:     reg.Counter("hc_cache_evictions_total", "Entries evicted to make room."),
		invalidations: reg.Counter("hc_cache_invalidations_total", "Entries invalidated by overwrite/delete/demotion/health flip."),
		pfIssued:      reg.Counter("hc_prefetch_issued_total", "Prefetch fills started."),
		pfUsed:        reg.Counter("hc_prefetch_used_total", "Prefetched entries that served a demand hit."),
		pfFailed:      reg.Counter("hc_prefetch_failed_total", "Prefetch fills that failed."),
		pfCancel:      reg.Counter("hc_prefetch_cancelled_total", "Prefetch fills cancelled by shutdown."),
		bytes:         reg.Gauge("hc_cache_bytes", "Bytes of decompressed payload resident in the read cache."),
		entries:       reg.Gauge("hc_cache_entries", "Entries resident in the read cache."),
	}
}

// touch records one read in the admission filter, rotating the
// generations at the end of each window. Caller holds c.mu.
func (c *Cache) touch(key string) {
	if c.touches == touchWindow {
		c.prev, c.cur = c.cur, c.prev
		clear(c.cur)
		c.touches = 0
	}
	c.touches++
	c.cur[key]++
}

// reads is key's recent read count. Caller holds c.mu.
func (c *Cache) reads(key string) uint32 { return c.cur[key] + c.prev[key] }

// record extends or restarts the ascending run of key's prefix and
// reports whether it queued the run for readahead (it reached minRun
// keys). Caller holds c.mu.
func (c *Cache) record(key string) bool {
	p, num, ok := splitRunKey(key)
	if !ok {
		return false
	}
	r, seen := c.runs[p]
	switch {
	case seen && num == r.last+1:
		r.n++
	case !seen && len(c.runs) >= c.maxRuns:
		clear(c.runs) // forget every run rather than grow without bound
		c.ready = c.ready[:0]
		r = run{n: 1}
	default:
		r = run{n: 1, queued: r.queued}
	}
	r.key, r.last = key, num
	queued := r.n >= minRun && !r.queued
	if queued {
		r.queued = true
		c.ready = append(c.ready, p)
	}
	c.runs[p] = r
	return queued
}

// Get looks key up. On a hit it returns the payload, its write-time meta,
// and a release func pinning the buffer — the caller must invoke release
// exactly once when done (Report.Release does). The returned bytes are
// shared with the cache: treat them as read-only until released. Both
// hits and misses count a touch and feed the run tracker.
func (c *Cache) Get(key string) (data []byte, meta Meta, release func(), ok bool) {
	c.mu.Lock()
	c.touch(key)
	if c.record(key) && c.kick != nil {
		defer c.kick() // runs after the unlocks below
	}
	e := c.entries[key]
	if e == nil {
		c.st.Misses++
		c.mu.Unlock()
		c.tm.misses.Inc()
		return nil, Meta{}, nil, false
	}
	c.st.Hits++
	if e.prefetched {
		e.prefetched = false
		c.st.PrefetchUsed++
		c.tm.pfUsed.Inc()
	}
	c.lruFront(e)
	e.refs.Add(1) // caller pin, under the lock so eviction can't race it to zero
	c.mu.Unlock()
	c.tm.hits.Inc()
	var once sync.Once
	return e.data, e.meta, func() { once.Do(e.unref) }, true
}

// BeginFill opens a demand fill for key if the admission gate passes: the
// key must have accumulated minTouches touches (the Get miss that
// preceded this call counts). Returns nil when admission rejects, the key
// is already resident, or a fill is already pending — the caller then
// just skips caching.
func (c *Cache) BeginFill(key string) *Fill {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[key] != nil || len(c.pending[key]) > 0 {
		return nil
	}
	if int(c.reads(key)) < c.minTouches {
		c.st.Rejects++
		c.tm.rejects.Inc()
		return nil
	}
	f := &Fill{key: key, by: key}
	c.pending[key] = append(c.pending[key], f)
	return f
}

// BeginPrefetch opens an ahead-of-demand fill. The run that predicted key
// is its admission signal, so the touch gate does not apply, and at
// Commit the fill is scored with the reads of the run's latest key.
// Resident and already-pending keys return nil.
func (c *Cache) BeginPrefetch(key string) *Fill {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[key] != nil || len(c.pending[key]) > 0 {
		return nil
	}
	f := &Fill{key: key, by: key, prefetch: true}
	if p, _, ok := splitRunKey(key); ok {
		if r, ok := c.runs[p]; ok {
			f.by = r.key
		}
	}
	c.pending[key] = append(c.pending[key], f)
	c.st.PrefetchIssued++
	c.tm.pfIssued.Inc()
	return f
}

// Commit completes a fill with the payload read for it. On success the
// cache takes a reference on data (a bufpool arena buffer) and, for
// demand fills, returns a caller pin exactly like a Get hit. ok=false —
// the fill was aborted by an invalidation, the key is already resident,
// the payload cannot fit, or an entry it would evict has more recent
// reads — leaves ownership of data with the caller (release is nil).
func (c *Cache) Commit(f *Fill, data []byte, meta Meta) (release func(), ok bool) {
	c.mu.Lock()
	c.unpend(f)
	need := int64(cap(data))
	if f.aborted || c.entries[f.key] != nil || need > c.capacity {
		c.mu.Unlock()
		return nil, false
	}
	if v := c.outranking(need, c.reads(f.by)); v != nil {
		// The victim earned its place: it stays, as if read, so the next
		// newcomer meets the next LRU entry.
		c.lruFront(v)
		c.st.Rejects++
		c.mu.Unlock()
		c.tm.rejects.Inc()
		return nil, false
	}
	for c.used+need > c.capacity {
		c.evictLocked(c.tail)
	}
	e := &entry{key: f.key, data: data, meta: meta, prefetched: f.prefetch}
	e.refs.Store(1) // the cache's reference
	if !f.prefetch {
		e.refs.Add(1) // the demand caller's pin
	}
	c.entries[f.key] = e
	c.lruPush(e)
	c.used += need
	c.st.Admissions++
	c.setGauges()
	c.mu.Unlock()
	c.tm.admissions.Inc()
	if f.prefetch {
		return nil, true
	}
	var once sync.Once
	return func() { once.Do(e.unref) }, true
}

// Abort cancels a pending fill (read error, shutdown). cancelled
// distinguishes a prefetch stopped by teardown from one that failed.
func (c *Cache) Abort(f *Fill, cancelled bool) {
	c.mu.Lock()
	c.unpend(f)
	if f.prefetch {
		if cancelled {
			c.st.PrefetchCancelled++
		} else {
			c.st.PrefetchFailed++
		}
	}
	c.mu.Unlock()
	if f.prefetch {
		if cancelled {
			c.tm.pfCancel.Inc()
		} else {
			c.tm.pfFailed.Inc()
		}
	}
}

// unpend removes f from the pending set. Caller holds c.mu.
func (c *Cache) unpend(f *Fill) {
	fills := c.pending[f.key]
	for i, p := range fills {
		if p == f {
			fills = append(fills[:i], fills[i+1:]...)
			break
		}
	}
	if len(fills) == 0 {
		delete(c.pending, f.key)
	} else {
		c.pending[f.key] = fills
	}
}

// Invalidate drops key's resident entry (outstanding pins keep the buffer
// alive; the cache's own reference is released) and revokes any pending
// fills so an in-flight read of the old bytes cannot re-insert them.
// Called on overwrite, delete, and demotion.
func (c *Cache) Invalidate(key string) {
	c.mu.Lock()
	e := c.entries[key]
	if e != nil {
		c.removeLocked(e)
		c.st.Invalidations++
		c.setGauges()
	}
	for _, f := range c.pending[key] {
		f.aborted = true
	}
	c.mu.Unlock()
	if e != nil {
		c.tm.invalidations.Inc()
	}
}

// InvalidateAll purges every entry and revokes every pending fill — the
// health-flip and shutdown hammer: after a tier transition the store's
// shape changed under us, so the only safe cache is an empty one.
func (c *Cache) InvalidateAll() {
	c.mu.Lock()
	n := len(c.entries)
	for _, e := range c.entries {
		c.removeLocked(e)
	}
	for _, fills := range c.pending {
		for _, f := range fills {
			f.aborted = true
		}
	}
	c.st.Invalidations += int64(n)
	c.setGauges()
	c.mu.Unlock()
	c.tm.invalidations.Add(int64(n))
}

// outranking returns the first of the LRU victims that admitting need
// bytes would evict with more recent reads than score, or nil when the
// newcomer may displace them all. Caller holds c.mu.
func (c *Cache) outranking(need int64, score uint32) *entry {
	free := c.capacity - c.used
	for v := c.tail; v != nil && free < need; v = v.prev {
		if c.reads(v.key) > score {
			return v
		}
		free += int64(cap(v.data))
	}
	return nil
}

// evictLocked removes the LRU victim to make room. Caller holds c.mu.
func (c *Cache) evictLocked(e *entry) {
	c.removeLocked(e)
	c.st.Evictions++
	c.tm.evictions.Inc()
}

// removeLocked unlinks e from the map and LRU list and drops the cache's
// reference. Caller holds c.mu.
func (c *Cache) removeLocked(e *entry) {
	delete(c.entries, e.key)
	c.lruUnlink(e)
	c.used -= int64(cap(e.data))
	e.unref()
}

func (c *Cache) setGauges() {
	c.tm.bytes.Set(float64(c.used))
	c.tm.entries.Set(float64(len(c.entries)))
}

func (c *Cache) lruPush(e *entry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) lruUnlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) lruFront(e *entry) {
	if c.head == e {
		return
	}
	c.lruUnlink(e)
	c.lruPush(e)
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.st
	s.Entries = len(c.entries)
	s.Bytes = c.used
	s.Capacity = c.capacity
	return s
}

// Candidates drains the runs queued since the last call into readahead
// targets: the next depth keys after each run's latest key, oldest run
// first. At most max keys are returned (runs left over stay queued);
// resident and pending keys are excluded. With no run queued it returns
// nil without allocating.
func (c *Cache) Candidates(max, depth int) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	i := 0
	for ; i < len(c.ready) && len(out) < max; i++ {
		p := c.ready[i]
		r := c.runs[p]
		r.queued = false
		c.runs[p] = r
		for d := int64(1); d <= int64(depth) && r.n >= minRun && len(out) < max; d++ {
			key := p + strconv.FormatInt(r.last+d, 10)
			if c.entries[key] == nil && len(c.pending[key]) == 0 {
				out = append(out, key)
			}
		}
	}
	c.ready = append(c.ready[:0], c.ready[i:]...)
	return out
}

// splitRunKey splits a key at its longest trailing decimal suffix
// ("p3-17" → "p3-", 17) so sequential runs can be detected and extended.
func splitRunKey(key string) (prefix string, num int64, ok bool) {
	i := len(key)
	for i > 0 && key[i-1] >= '0' && key[i-1] <= '9' {
		i--
	}
	digits := key[i:]
	if i == 0 || len(digits) == 0 || len(digits) > 18 {
		return "", 0, false
	}
	n, err := strconv.ParseInt(digits, 10, 64)
	if err != nil {
		return "", 0, false
	}
	return key[:i], n, true
}
