package bufpool

import (
	"sync"
	"testing"
)

// TestClassSizes checks the class table as a whole: it starts at
// minClass, ends at maxClass, rises strictly in steps of at most 25 %,
// and classFor inverts classSize.
func TestClassSizes(t *testing.T) {
	if classSize(0) != minClass {
		t.Fatalf("class 0 = %d, want %d", classSize(0), minClass)
	}
	if classSize(numClass-1) != maxClass {
		t.Fatalf("last class = %d, want %d", classSize(numClass-1), maxClass)
	}
	for i := 0; i < numClass; i++ {
		size := classSize(i)
		if got := classFor(size); got != i {
			t.Errorf("classFor(ClassSize(%d) = %d) = %d", i, size, got)
		}
		if i > 0 {
			if prev := classSize(i - 1); size <= prev || 4*size > 5*prev {
				t.Errorf("class %d = %d after %d: want a rise of at most 25%%", i, size, prev)
			}
		}
	}
}

// TestClassForRounding checks, for sizes across the whole range, that
// classFor picks the smallest class that holds n and that the class is
// never more than a quarter (plus the 1 KiB step of the first octave)
// larger than the request.
func TestClassForRounding(t *testing.T) {
	for n := 1; n <= maxClass; n += 37 {
		ci := classFor(n)
		if ci < 0 || ci >= numClass {
			t.Fatalf("classFor(%d) = %d", n, ci)
		}
		size := classSize(ci)
		if size < n {
			t.Fatalf("classFor(%d) -> class %d of %d bytes: too small", n, ci, size)
		}
		if ci > 0 && classSize(ci-1) >= n {
			t.Fatalf("classFor(%d) -> class %d, but class %d (%d bytes) already holds it", n, ci, ci-1, classSize(ci-1))
		}
		if n > minClass && 4*size > 5*n+4<<10 {
			t.Fatalf("classFor(%d) -> %d bytes: more than 1.25n + 1 KiB", n, size)
		}
	}
	if got := classFor(0); got != 0 {
		t.Errorf("classFor(0) = %d, want 0", got)
	}
	if got := classFor(maxClass + 1); got != -1 {
		t.Errorf("classFor(MaxClass+1) = %d, want -1", got)
	}
	// The case the classes were cut for: a 64 KiB piece plus its 20-byte
	// header takes an 80 KiB buffer, not a 128 KiB one.
	if got := classSize(classFor(64<<10 + 20)); got != 80<<10 {
		t.Errorf("64 KiB + 20 B payload takes a %d-byte buffer, want %d", got, 80<<10)
	}
}

func TestGetRoundsUpCapacity(t *testing.T) {
	for _, n := range []int{1, 100, minClass, minClass + 1, 1<<16 + 3, maxClass} {
		buf := Get(n)
		if len(buf) != n {
			t.Fatalf("Get(%d): len %d", n, len(buf))
		}
		want := classSize(classFor(n))
		if cap(buf) != want {
			t.Fatalf("Get(%d): cap %d, want class size %d", n, cap(buf), want)
		}
		Put(buf)
	}
}

func TestOversizeFallsThrough(t *testing.T) {
	_, _, outBefore, putBefore := Stats()
	buf := Get(maxClass + 1)
	if len(buf) != maxClass+1 {
		t.Fatalf("oversize len %d", len(buf))
	}
	_, _, outAfter, _ := Stats()
	if outAfter != outBefore+1 {
		t.Fatalf("outsize counter: %d -> %d", outBefore, outAfter)
	}
	// Putting an oversize buffer is a no-op (not pooled, not counted).
	Put(buf)
	_, _, _, putAfter := Stats()
	if putAfter != putBefore {
		t.Fatalf("oversize Put was counted: %d -> %d", putBefore, putAfter)
	}
}

func TestPutRejectsOddCapacity(t *testing.T) {
	_, _, _, putBefore := Stats()
	Put(make([]byte, 5000))            // cap between two classes
	Put(make([]byte, 9<<10))           // 4 KiB-aligned, still not a class
	Put(make([]byte, 100))             // below minClass
	Put(make([]byte, 2*maxClass))      // above maxClass
	Put(nil)                           // empty
	Put(make([]byte, 0, minClass)[:0]) // zero length but exact class cap: pooled
	_, _, _, putAfter := Stats()
	if putAfter != putBefore+1 {
		t.Fatalf("puts %d -> %d, want exactly one accepted", putBefore, putAfter)
	}
}

func TestRecycleHit(t *testing.T) {
	// A Put/Get pair in the same class should be served from the pool.
	// sync.Pool may drop items under GC pressure, so retry a few times
	// before declaring the pool broken.
	const n = 3 << 10
	for attempt := 0; attempt < 10; attempt++ {
		buf := Get(n)
		Put(buf)
		hitsBefore, _, _, _ := Stats()
		again := Get(n)
		hitsAfter, _, _, _ := Stats()
		Put(again)
		if hitsAfter > hitsBefore {
			return
		}
	}
	t.Fatal("no pool hit across 10 Put/Get cycles")
}

func TestDoublePutGuard(t *testing.T) {
	SetDebug(true)
	defer SetDebug(false)
	buf := Get(minClass)
	Put(buf)
	defer func() {
		if recover() == nil {
			t.Fatal("double Put did not panic under SetDebug")
		}
	}()
	Put(buf)
}

func TestDebugGetClearsGuard(t *testing.T) {
	SetDebug(true)
	defer SetDebug(false)
	buf := Get(minClass)
	Put(buf)
	// Keep getting until the pool hands the same base pointer back (it may
	// serve fresh buffers); a re-Put of the re-Got buffer must not panic.
	for i := 0; i < 64; i++ {
		b := Get(minClass)
		Put(b)
	}
}

func TestConcurrentGetPut(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			sizes := []int{1 << 12, 1 << 14, 1 << 16, 9000, 1 << 20}
			for i := 0; i < 500; i++ {
				n := sizes[(seed+i)%len(sizes)]
				buf := Get(n)
				if len(buf) != n {
					t.Errorf("len %d != %d", len(buf), n)
					return
				}
				buf[0] = byte(i)
				buf[n-1] = byte(i)
				Put(buf)
			}
		}(w)
	}
	wg.Wait()
}

func TestScratchGrowRetainsCapacity(t *testing.T) {
	var s Scratch
	b := GrowBytes(&s.Comp, 100)
	if len(b) != 100 {
		t.Fatalf("len %d", len(b))
	}
	big := GrowBytes(&s.Comp, 5000)
	big[4999] = 1
	small := GrowBytes(&s.Comp, 10)
	if cap(small) < 5000 {
		t.Fatalf("capacity shrank: %d", cap(small))
	}
	i := GrowI32(&s.SA, 33)
	i[32] = 7
	u := GrowU16(&s.Probs, 17)
	u[16] = 9
	if len(GrowI32(&s.SA, 2)) != 2 || len(GrowU16(&s.Probs, 3)) != 3 {
		t.Fatal("grow length contract violated")
	}
}

// residentOut reads the resident pool's outstanding bytes and the chunks
// class ci has mapped.
func residentOut(ci int) (int64, int) {
	out, mapped := Resident()
	return out, mapped[ci]
}

func TestResidentGetPut(t *testing.T) {
	out0, _ := Resident()
	hit0, miss0, _, put0 := Stats()
	for _, n := range []int{1, minClass + 1, 64<<10 + 20, maxClass} {
		buf := GetResident(n)
		if len(buf) != n || cap(buf) != classSize(classFor(n)) {
			t.Fatalf("GetResident(%d): len %d cap %d, want cap %d", n, len(buf), cap(buf), classSize(classFor(n)))
		}
		if out, _ := Resident(); out != out0+int64(cap(buf)) {
			t.Fatalf("GetResident(%d): outstanding %d, want %d", n, out-out0, cap(buf))
		}
		buf[0], buf[n-1] = 1, 2
		Put(buf)
		if out, _ := Resident(); out != out0 {
			t.Fatalf("Put after GetResident(%d): outstanding %d, want 0", n, out-out0)
		}
	}
	hit1, miss1, _, put1 := Stats()
	if got := (hit1 - hit0) + (miss1 - miss0); got != 4 {
		t.Errorf("hits+misses moved by %d, want 4", got)
	}
	if put1-put0 != 4 {
		t.Errorf("puts moved by %d, want 4", put1-put0)
	}
	if big := GetResident(maxClass + 1); len(big) != maxClass+1 {
		t.Fatalf("outsize GetResident: len %d", len(big))
	}
}

// TestResidentChunksUnmapWhenFree fills one class across several chunks
// and returns every buffer: the class must keep exactly one spare chunk,
// and a recycled slot must be served again (a hit).
func TestResidentChunksUnmapWhenFree(t *testing.T) {
	const n = 64<<10 + 20 // the 80 KiB class
	ci := classFor(n)
	out0, mapped0 := residentOut(ci)
	per := chunkSize / classSize(ci)
	bufs := make([][]byte, 3*per+1)
	seen := map[*byte]bool{}
	for i := range bufs {
		bufs[i] = GetResident(n)
		p := &bufs[i][0]
		if seen[p] {
			t.Fatalf("buffer %d handed out twice", i)
		}
		seen[p] = true
		bufs[i][0], bufs[i][n-1] = byte(i), byte(i)
	}
	if _, mapped := residentOut(ci); mapped < mapped0+3 {
		t.Fatalf("%d buffers of %d per chunk mapped %d chunks", len(bufs), per, mapped-mapped0)
	}
	for i, b := range bufs {
		if b[0] != byte(i) || b[n-1] != byte(i) {
			t.Fatalf("buffer %d overwritten by a neighbour", i)
		}
	}
	for _, b := range bufs {
		Put(b)
	}
	out, mapped := residentOut(ci)
	if out != out0 {
		t.Fatalf("outstanding %d after every Put", out-out0)
	}
	if mapped != 1 {
		t.Fatalf("class keeps %d chunks with every buffer free, want one spare", mapped)
	}
	hit0, _, _, _ := Stats()
	Put(GetResident(n))
	if hit1, _, _, _ := Stats(); hit1 != hit0+1 {
		t.Fatal("GetResident after Put was not served from a recycled slot")
	}
}

// TestResidentShrinkReleasesPages fills four classes across several
// chunks, touching every byte, and returns seven buffers in eight, then
// the rest. Each chunk's idle slots must keep fewer bytes than the
// release threshold, max(releaseMin, two slots, its handed-out bytes),
// and where the kernel can tell (mincore), the chunk's resident pages
// must stay within its handed-out bytes plus that threshold, plus a page
// either side of each slot out or idle. The buffers still out must keep
// their bytes.
func TestResidentShrinkReleasesPages(t *testing.T) {
	sizes := []int{5000, 20<<10 + 20, 64<<10 + 20, 256<<10 + 20}
	type class struct {
		ci   int
		bufs [][]byte
	}
	var cls []class
	for _, n := range sizes {
		ci := classFor(n)
		bufs := make([][]byte, 3*chunkSize/classSize(ci))
		for i := range bufs {
			bufs[i] = GetResident(n)
			for j := range bufs[i] {
				bufs[i][j] = byte(i)
			}
		}
		cls = append(cls, class{ci, bufs})
	}
	check := func(step string) {
		t.Helper()
		for _, cl := range cls {
			size := classSize(cl.ci)
			rc := &resClasses[cl.ci]
			rc.mu.Lock()
			chunks := append([]*chunk(nil), rc.partial...)
			if rc.spare != nil {
				chunks = append(chunks, rc.spare)
			}
			for _, c := range chunks {
				used := int(c.used) * size
				limit := max(releaseMin, 2*size, used)
				if idle := len(c.free) * size; idle >= limit {
					t.Errorf("%s: %d KiB class: a chunk keeps %d idle bytes, limit %d", step, size>>10, idle, limit)
				}
				res, ok := residentBytes(c.mem)
				if slack := 2 * pageSize * (int(c.used) + len(c.free)); ok && res > used+limit+slack {
					t.Errorf("%s: %d KiB class: a chunk with %d bytes out keeps %d resident, bound %d",
						step, size>>10, used, res, used+limit+slack)
				}
			}
			rc.mu.Unlock()
		}
	}
	for _, cl := range cls {
		for i, b := range cl.bufs {
			if i%8 != 0 {
				Put(b)
			}
		}
	}
	check("one in eight out")
	for _, cl := range cls {
		for i := 0; i < len(cl.bufs); i += 8 {
			b := cl.bufs[i]
			for j := range b {
				if b[j] != byte(i) {
					t.Fatalf("%d KiB class: buffer %d lost its bytes to a release", classSize(cl.ci)>>10, i)
				}
			}
			Put(b)
		}
	}
	check("all returned")
}

func TestResidentRefusesDoubleAndForeignPut(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	buf := GetResident(2 * minClass)
	Put(buf)
	mustPanic("double Put", func() { Put(buf) })

	held := GetResident(2 * minClass)
	// A tail with a class-sized capacity is not a buffer the pool handed out.
	mustPanic("foreign Put", func() { Put(held[minClass:]) })
	Put(held)

	SetDebug(true)
	defer SetDebug(false)
	again := GetResident(2 * minClass)
	Put(again)
	mustPanic("double Put under SetDebug", func() { Put(again) })
}

func TestConcurrentResidentAndHeap(t *testing.T) {
	out0, _ := Resident()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			sizes := []int{1 << 12, 64<<10 + 20, 9000, 1 << 20}
			var kept [][]byte
			for i := 0; i < 300; i++ {
				n := sizes[(seed+i)%len(sizes)]
				get := Get
				if i%2 == 0 {
					get = GetResident
				}
				buf := get(n)
				buf[0], buf[n-1] = byte(seed), byte(seed)
				kept = append(kept, buf)
				if len(kept) > 8 {
					b := kept[0]
					if b[0] != byte(seed) || b[len(b)-1] != byte(seed) {
						t.Errorf("buffer overwritten while held")
						return
					}
					Put(b)
					kept = kept[1:]
				}
			}
			for _, b := range kept {
				Put(b)
			}
		}(w)
	}
	wg.Wait()
	if out, _ := Resident(); out != out0 {
		t.Fatalf("outstanding %d after every Put", out-out0)
	}
}
