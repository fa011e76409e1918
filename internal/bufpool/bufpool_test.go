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
