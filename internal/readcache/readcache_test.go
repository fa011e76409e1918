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

// refreshWith runs one overwrite's cache step for key, published as
// version ver, and reports whether payload replaced the resident entry.
func refreshWith(c *Cache, key string, ver uint64, payload []byte) bool {
	f := c.BeginRefresh(key, ver)
	if f == nil {
		return false
	}
	data := bufpool.Get(len(payload))
	copy(data, payload)
	if !c.CommitRefresh(f, data, Meta{Size: int64(len(payload))}) {
		bufpool.Put(data)
		return false
	}
	return true
}

// TestRefreshReplacesInPlace: a refresh swaps the bytes of a resident
// entry without counting a read or moving it in the LRU order, and a pin
// on the old bytes keeps them.
func TestRefreshReplacesInPlace(t *testing.T) {
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(false)
	const size = 4096
	c := New(2*size, 1, 16)
	fill(t, c, "a", bytes.Repeat([]byte("a"), size))
	old, _, release, ok := c.Get("a")
	if !ok {
		t.Fatal("miss after fill")
	}
	fill(t, c, "b", bytes.Repeat([]byte("b"), size)) // a is now the LRU entry
	reads := c.reads("a")
	if !refreshWith(c, "a", 1, bytes.Repeat([]byte("A"), size)) {
		t.Fatal("refresh of a resident key did not commit")
	}
	if !bytes.Equal(old, bytes.Repeat([]byte("a"), size)) {
		t.Fatal("pinned bytes changed under refresh")
	}
	release()
	if c.tail.key != "a" || c.reads("a") != reads {
		t.Errorf("refresh moved the entry (tail %q) or counted a read (%d → %d)", c.tail.key, reads, c.reads("a"))
	}
	if !bytes.Equal(c.entries["a"].data, bytes.Repeat([]byte("A"), size)) {
		t.Error("entry does not hold the refreshed bytes")
	}
	st := c.Stats()
	if st.Refreshes != 1 || st.Admissions != 3 || st.Entries != 2 || st.Bytes != 2*size || st.Evictions != 0 {
		t.Errorf("stats = %+v, want Refreshes=1 Admissions=3 Entries=2 Bytes=%d", st, 2*size)
	}
}

// TestRefreshNeverAllocates: a write to a key the cache does not hold
// leaves it uncached, counts no read, and still revokes the pending fill
// that may carry the old bytes.
func TestRefreshNeverAllocates(t *testing.T) {
	c := New(1<<20, 1, 16)
	c.Get("k")
	f := c.BeginFill("k")
	if f == nil {
		t.Fatal("BeginFill refused")
	}
	if c.BeginRefresh("k", 1) != nil {
		t.Fatal("refresh opened for a key that is not resident")
	}
	data := bufpool.Get(64)
	if _, ok := c.Commit(f, data, Meta{Size: 64}); ok {
		t.Fatal("a fill revoked by an overwrite committed")
	}
	bufpool.Put(data)
	if st := c.Stats(); st.Entries != 0 || st.Refreshes != 0 || c.reads("k") != 1 {
		t.Fatalf("stats = %+v, reads %d: want no entry, no refresh, one read", st, c.reads("k"))
	}
}

// TestRefreshVersionOrder: a refresh revokes pending refreshes of lower
// versions and yields to a pending one of a higher version.
func TestRefreshVersionOrder(t *testing.T) {
	c := New(1<<20, 1, 16)
	fill(t, c, "k", []byte("v0"))
	f2 := c.BeginRefresh("k", 2)
	if f2 == nil {
		t.Fatal("refresh of a resident key refused")
	}
	if c.BeginRefresh("k", 1) != nil {
		t.Fatal("an older write's refresh opened beside a newer one's")
	}
	f3 := c.BeginRefresh("k", 3)
	if f3 == nil {
		t.Fatal("a newer write's refresh refused")
	}
	for _, r := range []struct {
		f    *Fill
		want bool
	}{{f2, false}, {f3, true}} {
		data := bufpool.Get(2)
		copy(data, fmt.Sprintf("v%d", r.f.ver))
		if ok := c.CommitRefresh(r.f, data, Meta{Size: 2}); ok != r.want {
			t.Fatalf("CommitRefresh(v%d) = %v, want %v", r.f.ver, ok, r.want)
		} else if !ok {
			bufpool.Put(data)
		}
	}
	if got := string(c.entries["k"].data); got != "v3" {
		t.Fatalf("entry holds %q, want v3", got)
	}
}

// TestRefreshFallsBackToInvalidation: a refreshed payload that would have
// to evict an entry read more often than its key, or that exceeds the
// capacity, invalidates the entry instead.
func TestRefreshFallsBackToInvalidation(t *testing.T) {
	const size = 4096
	c := New(2*size, 1, 16)
	fill(t, c, "hot", bytes.Repeat([]byte("h"), size))
	for i := 0; i < 3; i++ {
		_, _, release, _ := c.Get("hot")
		release()
	}
	fill(t, c, "k", bytes.Repeat([]byte("k"), size))
	if refreshWith(c, "k", 1, bytes.Repeat([]byte("K"), 2*size)) {
		t.Fatal("a refresh evicted an entry with more reads")
	}
	if refreshWith(c, "hot", 2, bytes.Repeat([]byte("H"), 3*size)) {
		t.Fatal("a refresh larger than the cache committed")
	}
	st := c.Stats()
	if st.Entries != 0 || st.Invalidations != 2 || st.Refreshes != 0 || st.Bytes != 0 {
		t.Fatalf("stats = %+v, want both entries invalidated", st)
	}
}

// TestRefreshGrowsByEvictingColderEntries: a refreshed payload larger
// than the old one evicts LRU entries with no more reads than its key,
// never the entry it replaces.
func TestRefreshGrowsByEvictingColderEntries(t *testing.T) {
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(false)
	const size = 4096
	c := New(3*size, 1, 16)
	for _, key := range []string{"k", "c1", "c2"} { // k is the LRU entry
		fill(t, c, key, bytes.Repeat([]byte(key[:1]), size))
	}
	if !refreshWith(c, "k", 1, bytes.Repeat([]byte("K"), 2*size)) {
		t.Fatal("a growing refresh did not commit")
	}
	if resident(c, "c1") || !resident(c, "k") || !resident(c, "c2") {
		t.Errorf("resident k=%v c1=%v c2=%v, want k and c2", resident(c, "k"), resident(c, "c1"), resident(c, "c2"))
	}
	if st := c.Stats(); st.Evictions != 1 || st.Bytes != 3*size || st.Refreshes != 1 {
		t.Errorf("stats = %+v, want one eviction and a full cache", st)
	}
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
