package bufpool

import (
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The resident pool serves the same size classes as the heap arena, but
// from chunks that live outside the Go heap (see mapChunk): each chunk is
// one chunkSize window, aligned to chunkSize, carved into slots of one
// class. A buffer's chunk is therefore its address with the low
// chunkShift bits cleared, which is how Put tells a resident buffer from
// a heap one in O(1).
//
// A returned slot keeps its pages, so the next Get of its class reuses
// them without a page fault. Once a chunk's idle slots hold at least
// max(releaseMin, two slots, the chunk's handed-out bytes), their pages
// go back to the operating system (releasePages), so a shrinking store
// does not keep its peak memory: a chunk keeps resident at most its
// handed-out bytes plus that much, and a page at each slot edge. The
// class's spare chunk follows the same rule.

const (
	chunkShift = 22
	chunkSize  = 1 << chunkShift // 4 MiB; the largest class fits four times
	releaseMin = 256 << 10       // idle bytes a chunk may keep before it releases pages
)

// pageSize is the unit releasePages works in; a chunk's window is
// aligned to it because chunkSize is a multiple of every page size.
var pageSize = os.Getpagesize()

// chunk is one mapped window holding slots of class ci.
type chunk struct {
	raw   []byte   // the mapping, as mapChunk returned it; unmapChunk takes it back
	mem   []byte   // the chunkSize-aligned window of raw the slots are cut from
	base  uintptr  // &mem[0]
	ci    int      // the class of every slot
	slots int32    // chunkSize / classSize(ci)
	fresh int32    // slots [fresh, slots) were never handed out
	used  int32    // slots handed out and not yet returned
	free  []int32  // returned slots whose pages are still resident, reused first
	clean []int32  // returned slots whose pages were released
	out   []uint64 // bitmap of handed-out slots: refuses a double or foreign Put
	pos   int      // index in the class's partial list; -1 when full or spare
}

// residentClass is one class's chunks. Partial chunks have a free slot
// and at least one buffer out; a chunk whose every buffer is back becomes
// the class's one spare, or is unmapped when a spare is already kept.
type residentClass struct {
	mu      sync.Mutex
	partial []*chunk
	spare   *chunk
}

// registry maps chunk windows to chunks. It is copied on write (chunks
// are mapped and unmapped rarely) so Put reads it with one atomic load;
// [lo, hi) bounds every registered window, which sends a heap buffer
// back to the heap arena without a map lookup.
type registry struct {
	lo, hi uintptr
	chunks map[uintptr]*chunk // keyed by base >> chunkShift
}

var (
	resClasses [numClass]residentClass

	regMu sync.Mutex // serializes registry writers
	reg   atomic.Pointer[registry]

	resOut atomic.Int64 // resident bytes handed out and not yet returned
)

// GetResident returns a buffer with len n for a payload that outlives the
// call that made it: the bytes a tier keeps. It serves the heap arena's
// size classes from off-heap chunks, so a store full of payloads neither
// grows the garbage collector's heap goal nor waits for a collection to
// give memory back; Put returns the buffer to its chunk at once. The
// caller must Put the buffer exactly once, and nothing may hold the
// buffer after that: its memory can be unmapped. Requests larger than
// the largest class are a plain make (counted as outsize), and if a chunk
// cannot be mapped the heap arena serves the request instead. Contents
// are unspecified.
func GetResident(n int) []byte {
	if n < 0 {
		panic("bufpool: negative size")
	}
	ci := classFor(n)
	if ci < 0 {
		outsize.Add(1)
		tm.outsize.Inc()
		return make([]byte, n)
	}
	size := classSize(ci)
	rc := &resClasses[ci]
	rc.mu.Lock()
	c, err := rc.chunkToFill(ci)
	if err != nil {
		rc.mu.Unlock()
		return Get(n)
	}
	slot, fresh := c.take()
	if c.used == c.slots {
		rc.unlist(c)
	}
	rc.mu.Unlock()

	if fresh {
		misses.Add(1)
		tm.misses.Inc()
	} else {
		hits.Add(1)
		tm.hits.Inc()
	}
	resOut.Add(int64(size))
	off := int(slot) * size
	buf := c.mem[off : off+n : off+size]
	if debugging() {
		debugGot(unsafe.Pointer(&buf[:1][0]))
	}
	return buf
}

// chunkToFill returns a chunk with a free slot: the newest partial one,
// else the spare, else a freshly mapped one. Caller holds rc.mu.
func (rc *residentClass) chunkToFill(ci int) (*chunk, error) {
	if k := len(rc.partial); k > 0 {
		return rc.partial[k-1], nil
	}
	c := rc.spare
	if c != nil {
		rc.spare = nil
	} else {
		raw, err := mapChunk()
		if err != nil {
			return nil, err
		}
		c = newChunk(raw, ci)
		register(c)
	}
	rc.list(c)
	return c, nil
}

func newChunk(raw []byte, ci int) *chunk {
	base := uintptr(unsafe.Pointer(&raw[0]))
	skip := int((chunkSize - base%chunkSize) % chunkSize)
	c := &chunk{raw: raw, mem: raw[skip : skip+chunkSize : skip+chunkSize], ci: ci, pos: -1}
	c.base = base + uintptr(skip)
	c.slots = int32(chunkSize / classSize(ci))
	c.out = make([]uint64, (c.slots+63)/64)
	return c
}

// take hands out one slot, reporting whether it was never used before.
// A slot whose pages are still resident goes first.
func (c *chunk) take() (slot int32, fresh bool) {
	if k := len(c.free); k > 0 {
		slot = c.free[k-1]
		c.free = c.free[:k-1]
	} else if k := len(c.clean); k > 0 {
		slot = c.clean[k-1]
		c.clean = c.clean[:k-1]
	} else {
		slot, fresh = c.fresh, true
		c.fresh++
	}
	c.out[slot/64] |= 1 << (slot % 64)
	c.used++
	return slot, fresh
}

func (rc *residentClass) list(c *chunk) {
	c.pos = len(rc.partial)
	rc.partial = append(rc.partial, c)
}

func (rc *residentClass) unlist(c *chunk) {
	last := rc.partial[len(rc.partial)-1]
	last.pos = c.pos
	rc.partial[c.pos] = last
	rc.partial = rc.partial[:len(rc.partial)-1]
	c.pos = -1
}

// residentChunk returns the chunk holding addr, or nil for a buffer that
// no chunk holds (one from the heap arena).
func residentChunk(addr uintptr) *chunk {
	r := reg.Load()
	if r == nil || addr < r.lo || addr >= r.hi {
		return nil
	}
	return r.chunks[addr>>chunkShift]
}

// putResident returns the buffer at addr, of class ci, to its chunk c.
func putResident(c *chunk, addr uintptr, ci int) {
	size := classSize(ci)
	off := addr - c.base
	if ci != c.ci || off%uintptr(size) != 0 {
		panic("bufpool: Put of a buffer the resident pool did not hand out")
	}
	slot := int32(off / uintptr(size))
	rc := &resClasses[ci]
	rc.mu.Lock()
	bit := uint64(1) << (slot % 64)
	if c.out[slot/64]&bit == 0 {
		rc.mu.Unlock()
		panic("bufpool: double Put of the same buffer")
	}
	c.out[slot/64] &^= bit
	c.free = append(c.free, slot)
	c.used--
	if idle := len(c.free) * size; idle >= max(releaseMin, 2*size, int(c.used)*size) {
		c.release(size)
	}
	var drop *chunk
	switch {
	case c.used == 0:
		if c.pos >= 0 {
			rc.unlist(c)
		}
		if rc.spare == nil {
			rc.spare = c
		} else {
			drop = c
		}
	case c.pos < 0: // it was full
		rc.list(c)
	}
	rc.mu.Unlock()
	resOut.Add(-int64(size))
	if drop != nil {
		unregister(drop)
		unmapChunk(drop.raw)
	}
}

// release gives the pages of c's idle slots back to the operating system
// and moves the slots to the clean list. Each idle slot is widened to the
// run of returned or never-used slots around it, so a page that straddles
// two such slots is released as well; only pages wholly inside a run
// are, so no handed-out slot loses a byte. Caller holds the class lock,
// so no slot of a run can be handed out meanwhile.
func (c *chunk) release(size int) {
	slices.Sort(c.free)
	isOut := func(s int32) bool { return c.out[s/64]&(1<<(s%64)) != 0 }
	done := int32(-1) // slots below done are inside a released run
	for _, s := range c.free {
		if s < done {
			continue
		}
		lo, hi := s, s+1
		for lo > 0 && !isOut(lo-1) {
			lo--
		}
		for hi < c.slots && !isOut(hi) {
			hi++
		}
		start := (int(lo)*size + pageSize - 1) &^ (pageSize - 1)
		end := (int(hi) * size) &^ (pageSize - 1)
		if start < end {
			releasePages(c.mem[start:end])
		}
		done = hi
	}
	c.clean = append(c.clean, c.free...)
	c.free = c.free[:0]
}

// register and unregister publish a new registry with c added or
// removed.
func register(c *chunk) {
	regMu.Lock()
	defer regMu.Unlock()
	reg.Store(reg.Load().with(c, true))
}

func unregister(c *chunk) {
	regMu.Lock()
	defer regMu.Unlock()
	reg.Store(reg.Load().with(c, false))
}

// with returns a copy of r (nil is empty) with c added or removed.
func (r *registry) with(c *chunk, add bool) *registry {
	n := &registry{chunks: make(map[uintptr]*chunk)}
	if r != nil {
		for k, v := range r.chunks {
			n.chunks[k] = v
		}
	}
	if add {
		n.chunks[c.base>>chunkShift] = c
	} else {
		delete(n.chunks, c.base>>chunkShift)
	}
	first := true
	for _, v := range n.chunks {
		if first || v.base < n.lo {
			n.lo = v.base
		}
		if first || v.base+chunkSize > n.hi {
			n.hi = v.base + chunkSize
		}
		first = false
	}
	return n
}

// Resident reports the resident pool's bytes handed out and not yet
// returned, and how many chunks each class has mapped.
func Resident() (out int64, mapped []int) {
	mapped = make([]int, numClass)
	if r := reg.Load(); r != nil {
		for _, c := range r.chunks {
			mapped[c.ci]++
		}
	}
	return resOut.Load(), mapped
}
