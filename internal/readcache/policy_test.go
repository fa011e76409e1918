package readcache

import (
	"fmt"
	"math/rand"
	"testing"

	"hcompress/internal/bufpool"
	"hcompress/internal/workload"
)

// read is one demand read through the cache the way the shard issues it:
// Get, and on a miss BeginFill and Commit a block-sized payload. It
// reports whether the read hit and whether its fill was admitted.
func read(c *Cache, key string, block int) (hit, admitted bool) {
	if _, _, release, ok := c.Get(key); ok {
		release()
		return true, false
	}
	f := c.BeginFill(key)
	if f == nil {
		return false, false
	}
	data := bufpool.Get(block)
	release, ok := c.Commit(f, data, Meta{Size: int64(block)})
	if !ok {
		bufpool.Put(data) // a refused fill leaves the buffer with the reader
		return false, false
	}
	release()
	return false, true
}

// resident reports whether key is in the cache without touching it.
func resident(c *Cache, key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[key] != nil
}

// TestZipfReplayHitRate replays the zipf_reread shape with no codec and
// no shard: Zipf(0.99) reads over 1,024 keys of 64 KiB into a 32-block
// cache, every 20th op an overwrite's Invalidate of a Zipf-chosen key.
// A frequency-kept hot set must hit at least 45 % of reads and admit at
// most a quarter of the misses; a plain LRU hits ~37 % and admits ~99 %.
func TestZipfReplayHitRate(t *testing.T) {
	const (
		nKeys  = 1024
		block  = 64 << 10
		blocks = 32
		ops    = 200000
	)
	for seed := int64(1); seed <= 3; seed++ {
		keys := make([]string, nKeys)
		for i, p := range rand.New(rand.NewSource(seed)).Perm(nKeys) {
			keys[i] = fmt.Sprintf("blk-%d", p) // Zipf rank → key, shuffled
		}
		reads := workload.NewZipf(nKeys, 0.99, seed)
		writes := workload.NewZipf(nKeys, 0.99, seed+100)
		c := New(blocks*block, 2, 256)
		for op := 1; op <= ops; op++ {
			if op%20 == 0 {
				c.Invalidate(keys[writes.Next()])
				continue
			}
			read(c, keys[reads.Next()], block)
		}
		st := c.Stats()
		hitRatio := float64(st.Hits) / float64(st.Hits+st.Misses)
		admitFrac := float64(st.Admissions) / float64(st.Misses)
		t.Logf("seed %d: hit ratio %.3f, admissions/misses %.3f, evictions/admissions %.3f",
			seed, hitRatio, admitFrac, float64(st.Evictions)/float64(st.Admissions))
		if hitRatio < 0.45 {
			t.Errorf("seed %d: hit ratio %.3f, want >= 0.45", seed, hitRatio)
		}
		if admitFrac > 0.25 {
			t.Errorf("seed %d: admissions = %.3f of misses, want <= 0.25", seed, admitFrac)
		}
		c.InvalidateAll()
	}
}

// prefetch drains the queued readahead the way the shard's worker does
// and reports how many fills committed.
func prefetch(c *Cache, block int) (committed int) {
	for _, key := range c.Candidates(8, 2) {
		f := c.BeginPrefetch(key)
		if f == nil {
			continue
		}
		data := bufpool.Get(block)
		if _, ok := c.Commit(f, data, Meta{Size: int64(block)}); ok {
			committed++
		} else {
			bufpool.Put(data)
		}
	}
	return committed
}

// TestHotSetAdapts: counts age by touches, so once every read moves from
// hot set A to a disjoint B, B becomes resident within a bounded number
// of reads even though A was read far more often.
func TestHotSetAdapts(t *testing.T) {
	const block = 4096
	c := New(4*block, 2, 16)
	for i := 0; i < 4*touchWindow; i++ {
		read(c, fmt.Sprintf("a%d", i%4), block)
	}
	for i := 0; i < 4; i++ {
		if !resident(c, fmt.Sprintf("a%d", i)) {
			t.Fatalf("a%d not resident after warming", i)
		}
	}
	allB := func() bool {
		for i := 0; i < 4; i++ {
			if !resident(c, fmt.Sprintf("b%d", i)) {
				return false
			}
		}
		return true
	}
	for i := 0; i < 3*touchWindow; i++ {
		read(c, fmt.Sprintf("b%d", i%4), block)
		if allB() {
			t.Logf("B resident after %d reads", i+1)
			return
		}
	}
	t.Fatalf("B not resident after %d reads: counts never aged", 3*touchWindow)
}

// TestScanLeavesHotSetResident: a single-touch ascending scan of ten
// times the capacity, admitted on its first read and read ahead, cannot
// displace keys read more often.
func TestScanLeavesHotSetResident(t *testing.T) {
	const block = 4096
	c := New(4*block, 1, 16)
	for i := 0; i < 12; i++ {
		read(c, fmt.Sprintf("hot-%c", 'a'+i%4), block)
	}
	for i := 0; i < 40; i++ {
		read(c, fmt.Sprintf("scan-%d", i), block)
		prefetch(c, block)
	}
	for i := 0; i < 4; i++ {
		if key := fmt.Sprintf("hot-%c", 'a'+i); !resident(c, key) {
			t.Errorf("%s evicted by a single-touch scan", key)
		}
	}
}

// TestReadaheadInFullCache: in a cache full of hot keys and one-read
// keys, an ascending run keeps committing readahead fills, and the keys
// read three times stay resident.
func TestReadaheadInFullCache(t *testing.T) {
	const block = 4096
	c := New(8*block, 1, 16)
	for i := 0; i < 12; i++ {
		read(c, fmt.Sprintf("hot-%c", 'a'+i%4), block)
	}
	for i := 0; i < 4; i++ {
		read(c, fmt.Sprintf("cold-%c", 'a'+i), block)
	}
	committed := 0
	for i := 0; i < 40; i++ {
		read(c, fmt.Sprintf("seq-%d", i), block)
		committed += prefetch(c, block)
	}
	if committed < 20 {
		t.Errorf("readahead committed %d fills over a 40-key run, want >= 20", committed)
	}
	for i := 0; i < 4; i++ {
		if key := fmt.Sprintf("hot-%c", 'a'+i); !resident(c, key) {
			t.Errorf("%s evicted by readahead", key)
		}
	}
}
