// Package bufpool is the data plane's buffer arena: a size-classed
// sync.Pool allocator for the byte buffers that flow between codecs, the
// Compression Manager, and the store, plus the per-worker Scratch that
// owns every reusable codec work buffer (see scratch.go).
//
// The arena serves quarter-step classes from 4 KiB to 1 MiB: 4 KiB, then
// 1.25x, 1.5x, 1.75x and 2x of each power of two (5, 6, 7, 8, 10, 12,
// 14, 16 KiB, ...), 33 classes in all. A stored payload is a
// 4096-aligned piece plus a 20-byte header, so it always lands just past
// a power of two; with power-of-two classes every 64 KiB piece sat in a
// 128 KiB buffer, and quarter steps cap that internal waste at 25 %.
// Requests above the largest class fall through to a plain make (counted
// as "outsize") and are dropped on Put, so the pool never retains
// pathological buffers. Requests below 4 KiB round up to the smallest
// class.
//
// The arena is process-global, like sync.Pool itself: buffers released by
// one client are reusable by another, and idle classes are reclaimed by
// the garbage collector through the usual sync.Pool victim mechanism.
// Hit/miss/outsize counters are kept in atomics and optionally mirrored
// into a telemetry registry via SetTelemetry.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"hcompress/internal/telemetry"
)

const (
	// minClass and maxClass bound the pooled buffer sizes.
	minClass = 4 << 10 // 4 KiB: the HCDP alignment quantum
	maxClass = 1 << 20 // 1 MiB: the largest codec block size
	minBits  = 12
	numClass = 1 + 4*8 // 4K, then four steps in each of the 8 octaves up to 1M
)

// classes[i] holds buffers of exactly classSize(i) bytes. Pools store the
// raw base pointer (one word, so Get/Put never allocate an interface box);
// the slice is reconstructed from the class size on Get.
var classes [numClass]sync.Pool

var (
	hits    atomic.Int64
	misses  atomic.Int64
	outsize atomic.Int64
	puts    atomic.Int64

	tmMu sync.Mutex
	tm   struct {
		hits    *telemetry.Counter
		misses  *telemetry.Counter
		outsize *telemetry.Counter
		puts    *telemetry.Counter
	}
)

// SetTelemetry mirrors the arena's counters into reg. The arena is
// process-global, so when several clients run in one process the most
// recently registered registry receives the deltas; nil detaches.
func SetTelemetry(reg *telemetry.Registry) {
	tmMu.Lock()
	defer tmMu.Unlock()
	if reg == nil {
		tm.hits, tm.misses, tm.outsize, tm.puts = nil, nil, nil, nil
		return
	}
	tm.hits = reg.Counter("hc_bufpool_hits_total", "arena gets served from a pool class")
	tm.misses = reg.Counter("hc_bufpool_misses_total", "arena gets that allocated a fresh class buffer")
	tm.outsize = reg.Counter("hc_bufpool_outsize_total", "arena gets larger than the biggest class (plain make)")
	tm.puts = reg.Counter("hc_bufpool_puts_total", "buffers returned to the arena")
}

// Stats reports the arena's lifetime counters.
func Stats() (hit, miss, out, put int64) {
	return hits.Load(), misses.Load(), outsize.Load(), puts.Load()
}

// classSize returns the buffer size of class i: class 0 is minClass, and
// class 4*o+s (s in 1..4) is (4+s)/4 of minClass<<o.
func classSize(i int) int {
	if i == 0 {
		return minClass
	}
	o, s := (i-1)/4, (i-1)%4+1
	return (minClass / 4 << o) * (4 + s)
}

// classFor returns the smallest class holding n bytes, or -1 when n
// exceeds maxClass.
func classFor(n int) int {
	if n > maxClass {
		return -1
	}
	if n <= minClass {
		return 0
	}
	// n-1 has its top bit at position b, so n lies in (1<<b, 2<<b]; the
	// two bits below the top one pick the quarter step within that octave.
	b := bits.Len(uint(n-1)) - 1
	return 4*(b-minBits) + (n-1)>>(b-2) - 3
}

// Get returns a buffer with len n. The buffer comes from the arena when
// n fits a size class (its capacity is the class size) and from a plain
// make otherwise. Contents are unspecified — callers must overwrite.
func Get(n int) []byte {
	if n < 0 {
		panic("bufpool: negative size")
	}
	ci := classFor(n)
	if ci < 0 {
		outsize.Add(1)
		tm.outsize.Inc()
		return make([]byte, n)
	}
	if p, _ := classes[ci].Get().(unsafe.Pointer); p != nil {
		hits.Add(1)
		tm.hits.Inc()
		if debugging() {
			debugGot(p)
		}
		return unsafe.Slice((*byte)(p), classSize(ci))[:n]
	}
	misses.Add(1)
	tm.misses.Inc()
	return make([]byte, n, classSize(ci))
}

// Put returns buf to the arena. Only buffers whose capacity is exactly a
// class size are pooled (anything the arena handed out qualifies); other
// buffers — including oversize ones — are left to the garbage collector.
// buf must not be used after Put.
func Put(buf []byte) {
	c := cap(buf)
	if c < minClass || c > maxClass {
		return
	}
	ci := classFor(c)
	if classSize(ci) != c {
		return
	}
	puts.Add(1)
	tm.puts.Inc()
	p := unsafe.Pointer(&buf[:c][0])
	if debugging() {
		debugPut(p)
	}
	classes[ci].Put(p)
}

// --- double-put guard (tests only) ---

var (
	debugOn  atomic.Bool
	debugMu  sync.Mutex
	debugSet map[unsafe.Pointer]struct{}
)

func debugging() bool { return debugOn.Load() }

// SetDebug toggles the double-put guard: with it on, returning the same
// buffer twice without an intervening Get panics. Intended for tests; the
// guard costs a map operation per arena call.
func SetDebug(on bool) {
	debugMu.Lock()
	defer debugMu.Unlock()
	if on {
		debugSet = make(map[unsafe.Pointer]struct{})
	} else {
		debugSet = nil
	}
	debugOn.Store(on)
}

func debugPut(p unsafe.Pointer) {
	debugMu.Lock()
	defer debugMu.Unlock()
	if debugSet == nil {
		return
	}
	if _, dup := debugSet[p]; dup {
		panic("bufpool: double Put of the same buffer")
	}
	debugSet[p] = struct{}{}
}

func debugGot(p unsafe.Pointer) {
	debugMu.Lock()
	defer debugMu.Unlock()
	if debugSet != nil {
		delete(debugSet, p)
	}
}
