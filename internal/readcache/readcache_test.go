package readcache

import (
	"bytes"
	"fmt"
	"testing"

	"hcompress/internal/bufpool"
)

// fill writes key through the demand path far enough to pass admission
// (miss twice at minTouches=2), then commits payload. Fails the test if
// any step is refused.
func fill(t *testing.T, c *Cache, key string, payload []byte) {
	t.Helper()
	for i := 0; i < 2; i++ {
		if _, _, _, ok := c.Get(key); ok {
			t.Fatalf("unexpected hit for %q before fill", key)
		}
	}
	f := c.BeginFill(key)
	if f == nil {
		t.Fatalf("BeginFill(%q) refused after two touches", key)
	}
	data := bufpool.Get(len(payload))
	copy(data, payload)
	release, ok := c.Commit(f, data, Meta{Size: int64(len(payload))})
	if !ok {
		bufpool.Put(data)
		t.Fatalf("Commit(%q) refused", key)
	}
	release()
}

func TestAdmissionRejectsSingleTouch(t *testing.T) {
	c := New(1<<20, 2, 16)
	if _, _, _, ok := c.Get("k"); ok {
		t.Fatal("hit on empty cache")
	}
	if f := c.BeginFill("k"); f != nil {
		t.Fatal("BeginFill admitted a single-touch key")
	}
	st := c.Stats()
	if st.Rejects != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want Rejects=1 Misses=1", st)
	}
	// Second miss reaches the threshold.
	c.Get("k")
	f := c.BeginFill("k")
	if f == nil {
		t.Fatal("BeginFill refused a twice-touched key")
	}
	c.Abort(f, false)
}

func TestHitReturnsIdenticalBytes(t *testing.T) {
	c := New(1<<20, 2, 16)
	payload := []byte("the quick brown fox jumps over the lazy dog")
	fill(t, c, "k", payload)
	data, meta, release, ok := c.Get("k")
	if !ok {
		t.Fatal("miss after fill")
	}
	if !bytes.Equal(data[:meta.Size], payload) {
		t.Fatalf("cached bytes differ: %q vs %q", data[:meta.Size], payload)
	}
	release()
	release() // idempotent: sync.Once guards the pin
	if st := c.Stats(); st.Hits != 1 || st.Admissions != 1 {
		t.Fatalf("stats = %+v, want Hits=1 Admissions=1", st)
	}
}

func TestLRUEviction(t *testing.T) {
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(false)
	const size = 4096
	c := New(2*size, 1, 16) // room for exactly two entries
	for _, key := range []string{"a", "b"} {
		fill(t, c, key, bytes.Repeat([]byte(key), size))
	}
	c.Get("a") // "a" is now MRU; "b" is the LRU victim
	fill(t, c, "c", bytes.Repeat([]byte("c"), size))
	if _, _, _, ok := c.Get("b"); ok {
		t.Fatal("LRU victim still resident")
	}
	if _, _, release, ok := c.Get("a"); !ok {
		t.Fatal("MRU entry evicted")
	} else {
		release()
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want Evictions=1 Entries=2", st)
	}
}

func TestOversizedPayloadRefused(t *testing.T) {
	c := New(1024, 1, 16)
	c.Get("big")
	f := c.BeginFill("big")
	if f == nil {
		t.Fatal("BeginFill refused")
	}
	data := bufpool.Get(4096)
	if _, ok := c.Commit(f, data, Meta{Size: 4096}); ok {
		t.Fatal("oversized payload admitted")
	}
	bufpool.Put(data) // ownership stayed with the caller
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("entries = %d, want 0", st.Entries)
	}
}

func TestInvalidateAbortsPendingFill(t *testing.T) {
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(false)
	c := New(1<<20, 1, 16)
	c.Get("k")
	f := c.BeginFill("k")
	if f == nil {
		t.Fatal("BeginFill refused")
	}
	c.Invalidate("k") // overwrite races the in-flight fill
	data := bufpool.Get(64)
	if _, ok := c.Commit(f, data, Meta{Size: 64}); ok {
		t.Fatal("aborted fill committed stale bytes")
	}
	bufpool.Put(data)
	if _, _, _, ok := c.Get("k"); ok {
		t.Fatal("stale entry resident after invalidation")
	}
}

func TestPinSurvivesInvalidation(t *testing.T) {
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(false)
	c := New(1<<20, 1, 16)
	payload := bytes.Repeat([]byte("x"), 512)
	fill(t, c, "k", payload)
	data, meta, release, ok := c.Get("k")
	if !ok {
		t.Fatal("miss after fill")
	}
	c.Invalidate("k") // cache drops its reference; the pin keeps the buffer
	if !bytes.Equal(data[:meta.Size], payload) {
		t.Fatal("pinned bytes changed under invalidation")
	}
	release() // last reference: buffer returns to the arena exactly once
	release() // and a second call must not double-free (debug mode panics)
}

func TestInvalidateAllPurges(t *testing.T) {
	c := New(1<<20, 1, 16)
	for i := 0; i < 4; i++ {
		fill(t, c, fmt.Sprintf("k%d", i), []byte("payload"))
	}
	c.InvalidateAll()
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.Invalidations != 4 {
		t.Fatalf("stats = %+v, want empty with Invalidations=4", st)
	}
}

// TestCandidatesSkipRepeatedKeys: a key read twice but not resident is
// demand admission's job, so readahead never re-decodes it.
func TestCandidatesSkipRepeatedKeys(t *testing.T) {
	c := New(1<<20, 2, 32)
	for _, key := range []string{"hot", "cold", "hot", "blk-7", "blk-7"} {
		c.Get(key)
	}
	if got := c.Candidates(8, 2); len(got) != 0 {
		t.Fatalf("Candidates = %v, want none", got)
	}
}

func TestCandidatesSequentialRun(t *testing.T) {
	c := New(1<<20, 2, 32)
	c.Get("blk-5")
	c.Get("blk-6")
	c.Get("blk-7")
	got := c.Candidates(8, 2)
	want := map[string]bool{"blk-8": true, "blk-9": true}
	if len(got) != 2 || !want[got[0]] || !want[got[1]] || got[0] == got[1] {
		t.Fatalf("Candidates = %v, want blk-8 and blk-9", got)
	}
}

// TestCandidatesRespectsMaxAcrossRuns: three queued runs offer six
// targets; max caps the drain and the runs left over stay queued.
func TestCandidatesRespectsMaxAcrossRuns(t *testing.T) {
	c := New(1<<20, 2, 64)
	for _, p := range []string{"a-", "b-", "c-"} {
		for i := 0; i < 3; i++ {
			c.Get(fmt.Sprintf("%s%d", p, i))
		}
	}
	if got := c.Candidates(3, 2); fmt.Sprint(got) != "[a-3 a-4 b-3]" {
		t.Fatalf("Candidates(3) = %v, want [a-3 a-4 b-3]", got)
	}
	if got := c.Candidates(8, 2); fmt.Sprint(got) != "[c-3 c-4]" {
		t.Fatalf("second Candidates = %v, want [c-3 c-4]", got)
	}
}

// TestCandidatesIdleAllocatesNothing: with no run queued the prefetch
// worker's candidate step is a lock and a length check.
func TestCandidatesIdleAllocatesNothing(t *testing.T) {
	c := New(1<<20, 2, 32)
	c.Get("blk-1")
	c.Get("x")
	if n := testing.AllocsPerRun(100, func() { c.Candidates(8, 2) }); n != 0 {
		t.Fatalf("Candidates allocated %.0f times with no run queued", n)
	}
}

func TestSplitRunKey(t *testing.T) {
	cases := []struct {
		key    string
		prefix string
		num    int64
		ok     bool
	}{
		{"p3-17", "p3-", 17, true},
		{"blk0", "blk", 0, true},
		{"nokey", "", 0, false},
		{"12345", "", 0, false}, // all digits: no prefix
		{"", "", 0, false},
	}
	for _, tc := range cases {
		p, n, ok := splitRunKey(tc.key)
		if p != tc.prefix || n != tc.num || ok != tc.ok {
			t.Errorf("splitRunKey(%q) = (%q, %d, %v), want (%q, %d, %v)",
				tc.key, p, n, ok, tc.prefix, tc.num, tc.ok)
		}
	}
}
