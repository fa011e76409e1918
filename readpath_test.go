package hcompress

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hcompress/internal/bufpool"
	"hcompress/internal/manager"
	"hcompress/internal/readcache"
	"hcompress/internal/stats"
)

// cacheConfig is the read-accelerator test baseline: cache on at a
// quarter of tier 0, first-read admission (so tests warm in one read),
// prefetch off for determinism. Tests override fields as needed.
func cacheConfig() Config {
	return Config{
		ReadCacheFraction:   0.25,
		ReadCacheMinTouches: 1,
		DisablePrefetch:     true,
	}
}

// readRep decompresses key and fails the test on error.
func readRep(t *testing.T, c *Client, key string) *Report {
	t.Helper()
	rep, err := c.Decompress(key)
	if err != nil {
		t.Fatalf("read %q: %v", key, err)
	}
	return rep
}

// TestCacheHitGoldenBytes is the golden byte-identity gate: the bytes a
// cache hit serves must be exactly the bytes the miss path decodes.
func TestCacheHitGoldenBytes(t *testing.T) {
	c := newClient(t, cacheConfig())
	data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 128<<10, 3)
	if _, err := c.Compress(Task{Key: "k", Data: data}); err != nil {
		t.Fatal(err)
	}
	miss := readRep(t, c, "k")
	if miss.CacheHit {
		t.Fatal("first read must miss")
	}
	if !bytes.Equal(miss.Data, data) {
		t.Fatal("miss-path round-trip mismatch")
	}
	miss.Release()
	hit := readRep(t, c, "k")
	if !hit.CacheHit {
		t.Fatal("second read must be served from the cache")
	}
	if !bytes.Equal(hit.Data, data) {
		t.Fatal("cache hit returned different bytes than the miss path")
	}
	if hit.OriginalBytes != miss.OriginalBytes || hit.StoredBytes != miss.StoredBytes ||
		hit.DataType != miss.DataType || hit.Distribution != miss.Distribution {
		t.Errorf("hit report attribution differs: hit=%+v miss=%+v", hit, miss)
	}
	hit.Release()
	st := c.CacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Admissions != 1 {
		t.Errorf("stats = %+v, want Hits=1 Misses=1 Admissions=1", st)
	}
}

// TestCacheAdmissionRejectsSingleTouch: with the default two-touch gate a
// one-shot scan never caches; only the second read of a key opens a fill.
func TestCacheAdmissionRejectsSingleTouch(t *testing.T) {
	cfg := cacheConfig()
	cfg.ReadCacheMinTouches = 0 // default: 2
	c := newClient(t, cfg)
	data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 32<<10, 5)
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("scan%d", i)
		if _, err := c.Compress(Task{Key: key, Data: data}); err != nil {
			t.Fatal(err)
		}
		readRep(t, c, key).Release()
	}
	st := c.CacheStats()
	if st.Admissions != 0 || st.Entries != 0 {
		t.Fatalf("single-touch keys cached: %+v", st)
	}
	if st.Rejects < 4 {
		t.Errorf("rejects = %d, want >= 4 (one per single-touch fill attempt)", st.Rejects)
	}
	// Second touch of one key passes the gate; the third read hits.
	readRep(t, c, "scan0").Release()
	rep := readRep(t, c, "scan0")
	if !rep.CacheHit {
		t.Error("third read of a twice-touched key must hit")
	}
	rep.Release()
}

// TestCacheInvalidationOnOverwrite: an overwrite must never leave the old
// bytes in the cache — it refreshes a resident entry with the written
// bytes, so the next read hits and returns them.
func TestCacheInvalidationOnOverwrite(t *testing.T) {
	c := newClient(t, cacheConfig())
	oldData := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 64<<10, 1)
	newData := stats.GenBuffer(stats.TypeFloat, stats.Normal, 64<<10, 2)
	if _, err := c.Compress(Task{Key: "k", Data: oldData}); err != nil {
		t.Fatal(err)
	}
	readRep(t, c, "k").Release()
	rep := readRep(t, c, "k")
	if !rep.CacheHit || !bytes.Equal(rep.Data, oldData) {
		t.Fatal("warming read broken")
	}
	rep.Release()
	if _, err := c.Compress(Task{Key: "k", Data: newData}); err != nil {
		t.Fatal(err)
	}
	rep = readRep(t, c, "k")
	if !rep.CacheHit {
		t.Error("read after overwrite must hit (entry refreshed)")
	}
	if !bytes.Equal(rep.Data, newData) {
		t.Error("read after overwrite returned stale bytes")
	}
	rep.Release()
	// And the batch write path refreshes the same way.
	readRep(t, c, "k").Release() // re-warm
	if _, err := c.CompressBatch([]Task{{Key: "k", Data: oldData}}); err != nil {
		t.Fatal(err)
	}
	rep = readRep(t, c, "k")
	if !rep.CacheHit || !bytes.Equal(rep.Data, oldData) {
		t.Errorf("read after batch overwrite: hit=%v, stale=%v", rep.CacheHit, !bytes.Equal(rep.Data, oldData))
	}
	rep.Release()
}

// TestCacheInvalidationOnDelete: a deleted key's cached payload is gone.
func TestCacheInvalidationOnDelete(t *testing.T) {
	c := newClient(t, cacheConfig())
	data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 64<<10, 1)
	if _, err := c.Compress(Task{Key: "k", Data: data}); err != nil {
		t.Fatal(err)
	}
	readRep(t, c, "k").Release()
	readRep(t, c, "k").Release() // resident now
	if err := c.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decompress("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read after delete = %v, want ErrNotFound", err)
	}
	st := c.CacheStats()
	if st.Entries != 0 || st.Invalidations < 1 {
		t.Errorf("stats after delete = %+v, want no entries, >=1 invalidation", st)
	}
}

// TestCacheInvalidationOnDemotion: when the demoter moves a key's blobs
// down a tier, the cached payload is invalidated through the demote
// notification — the next read misses (and still returns correct bytes).
func TestCacheInvalidationOnDemotion(t *testing.T) {
	cfg := cacheConfig()
	cfg.Tiers = demoteTiers()
	c := newClient(t, cfg)
	fillTier0(t, c, 0.86)
	data0 := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 1<<20, 0)
	readRep(t, c, "fill0").Release() // warm the oldest key — first to demote
	rep := readRep(t, c, "fill0")
	if !rep.CacheHit {
		t.Fatal("warming read must hit")
	}
	rep.Release()

	c.demoteOnce(context.Background(), 64)

	st := c.CacheStats()
	if st.Invalidations < 1 {
		t.Errorf("stats after demotion = %+v, want >= 1 invalidation", st)
	}
	rep = readRep(t, c, "fill0")
	if rep.CacheHit {
		t.Error("read after demotion must miss (entry invalidated)")
	}
	if !bytes.Equal(rep.Data, data0) {
		t.Error("read after demotion returned wrong bytes")
	}
	rep.Release()
}

// TestCacheInvalidationOnHealthFlip: a tier health transition purges the
// whole cache — after the flip the store's shape changed under us.
func TestCacheInvalidationOnHealthFlip(t *testing.T) {
	cfg := cacheConfig()
	cfg.Tiers = faultTiers()
	cfg.FaultInjector = &FaultInjector{Windows: []FaultWindow{
		{Tier: "ram", StartSec: 1000, Mode: FaultOutage}, // never closes
	}}
	c := newClient(t, cfg)
	data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 64<<10, 1)
	if _, err := c.Compress(Task{Key: "pre", Data: data}); err != nil {
		t.Fatal(err)
	}
	readRep(t, c, "pre").Release()
	readRep(t, c, "pre").Release()
	if st := c.CacheStats(); st.Entries != 1 {
		t.Fatalf("warming failed: %+v", st)
	}

	// Enter the outage window; failing writes cross the offline threshold
	// and the health machine fires the event that purges the cache.
	c.Advance(2000)
	for i := 0; i < 4; i++ {
		if _, err := c.Compress(Task{Key: fmt.Sprintf("post%d", i), Data: data}); err != nil {
			t.Fatalf("write %d under single-tier outage must spill, got %v", i, err)
		}
	}
	if h := c.Health(); h[0].State != "offline" {
		t.Fatalf("ram should be offline: %+v", h)
	}
	st := c.CacheStats()
	if st.Entries != 0 || st.Invalidations < 1 {
		t.Errorf("stats after health flip = %+v, want empty cache", st)
	}
	// Keys written after the flip live on the healthy tier and read fine.
	rep := readRep(t, c, "post0")
	if rep.CacheHit || !bytes.Equal(rep.Data, data) {
		t.Errorf("post-flip read: hit=%v", rep.CacheHit)
	}
	rep.Release()
}

// TestReportSurvivesConcurrentInvalidation is the read-side refcount
// hazard gate (deterministic): a Report handed out by Decompress keeps
// its bytes through an overwrite AND a delete of the key, and Release is
// idempotent — never a double-free (bufpool debug mode panics on one).
func TestReportSurvivesConcurrentInvalidation(t *testing.T) {
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(false)
	c := newClient(t, cacheConfig())
	oldData := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 64<<10, 1)
	newData := stats.GenBuffer(stats.TypeFloat, stats.Normal, 64<<10, 2)
	if _, err := c.Compress(Task{Key: "k", Data: oldData}); err != nil {
		t.Fatal(err)
	}
	readRep(t, c, "k").Release()
	held := readRep(t, c, "k") // pinned cache hit
	if !held.CacheHit {
		t.Fatal("warming read must hit")
	}

	// Overwrite, then delete, while the Report is held: the cache drops
	// its reference both times; the pin must keep the buffer alive.
	if _, err := c.Compress(Task{Key: "k", Data: newData}); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held.Data, oldData) {
		t.Fatal("held report's bytes changed under invalidation")
	}
	held.Release()
	held.Release() // second release must be a no-op, not a double-free
}

// TestCacheReadWriteRace hammers one key with concurrent overwrites,
// deletes, and cached reads. Every successful read must observe one of
// the two payload versions in full — never torn bytes, never a stale mix
// — and the run must be race-clean under -race.
func TestCacheReadWriteRace(t *testing.T) {
	c := newClient(t, cacheConfig())
	const size = 8 << 10
	versions := [2][]byte{
		stats.GenBuffer(stats.TypeFloat, stats.Gamma, size, 1),
		stats.GenBuffer(stats.TypeFloat, stats.Normal, size, 2),
	}
	if _, err := c.Compress(Task{Key: "k", Data: versions[0]}); err != nil {
		t.Fatal(err)
	}
	const writers, readers, iters = 2, 4, 150
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters && !stop.Load(); i++ {
				if _, err := c.Compress(Task{Key: "k", Data: versions[(w+i)%2]}); err != nil {
					t.Error(err)
					return
				}
				if i%16 == 9 {
					_ = c.Delete("k") // concurrent writer may have raced us; either outcome is fine
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters && !stop.Load(); i++ {
				rep, err := c.Decompress("k")
				if err != nil {
					if errors.Is(err, ErrNotFound) {
						continue // a delete won the race
					}
					t.Error(err)
					return
				}
				if !bytes.Equal(rep.Data, versions[0]) && !bytes.Equal(rep.Data, versions[1]) {
					t.Error("read observed torn or stale bytes")
					rep.Release()
					stop.Store(true)
					return
				}
				rep.Release()
			}
		}()
	}
	wg.Wait()
}

// TestRefreshedHitReportsWriteMeta: a hit on an entry an overwrite
// refreshed reports what a read through the store reports for that write:
// size, stored bytes, type, distribution and ratio.
func TestRefreshedHitReportsWriteMeta(t *testing.T) {
	c := newClient(t, cacheConfig())
	oldData := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 64<<10, 1)
	newData := stats.GenBuffer(stats.TypeText, stats.Uniform, 48<<10, 2)
	for _, data := range [][]byte{oldData, newData} {
		if _, err := c.Compress(Task{Key: "k", Data: data}); err != nil {
			t.Fatal(err)
		}
		readRep(t, c, "k").Release() // the first pass warms, the second refreshes
	}
	hit := readRep(t, c, "k")
	defer hit.Release()
	if !hit.CacheHit || !bytes.Equal(hit.Data, newData) {
		t.Fatalf("read after overwrite: hit=%v, new bytes=%v", hit.CacheHit, bytes.Equal(hit.Data, newData))
	}
	c.cache.Invalidate("k")
	miss := readRep(t, c, "k")
	defer miss.Release()
	if miss.CacheHit {
		t.Fatal("read after Invalidate must miss")
	}
	if hit.OriginalBytes != miss.OriginalBytes || hit.StoredBytes != miss.StoredBytes ||
		hit.DataType != miss.DataType || hit.Distribution != miss.Distribution || hit.Ratio != miss.Ratio {
		t.Errorf("refreshed hit attribution differs from the store's:\nhit  %+v\nmiss %+v", hit, miss)
	}
}

// TestBatchWritingKeyTwiceRefreshesLast: a batch that writes a cached key
// twice leaves the cache with its last write, refreshed once.
func TestBatchWritingKeyTwiceRefreshesLast(t *testing.T) {
	c := newClient(t, cacheConfig())
	v := [3][]byte{}
	for i := range v {
		v[i] = stats.GenBuffer(stats.TypeFloat, stats.Gamma, 16<<10, int64(i+1))
	}
	if _, err := c.Compress(Task{Key: "k", Data: v[0]}); err != nil {
		t.Fatal(err)
	}
	readRep(t, c, "k").Release()
	before := c.CacheStats()
	if _, err := c.CompressBatch([]Task{{Key: "k", Data: v[1]}, {Key: "k", Data: v[2]}}); err != nil {
		t.Fatal(err)
	}
	rep := readRep(t, c, "k")
	defer rep.Release()
	if !rep.CacheHit || !bytes.Equal(rep.Data, v[2]) {
		t.Fatalf("read after batch: hit=%v, last write's bytes=%v", rep.CacheHit, bytes.Equal(rep.Data, v[2]))
	}
	if st := c.CacheStats(); st.Refreshes-before.Refreshes != 1 {
		t.Errorf("refreshes = %d, want 1", st.Refreshes-before.Refreshes)
	}
}

// TestCacheRefreshFollowsPublishOrder: whatever order overwrites of one
// key reach the read cache in, a hit returns the bytes of the write the
// manager's directory names. Four interleavings are forced, then
// concurrent writers, readers and fills held open across overwrites run
// until quiesce, and the cache is checked against the directory's
// version (not against a store read).
func TestCacheRefreshFollowsPublishOrder(t *testing.T) {
	const size = 8 << 10
	gen := func(i int) []byte { return stats.GenBuffer(stats.TypeFloat, stats.Gamma, size, int64(i+1)) }
	write := func(t *testing.T, c *Client, key string, data []byte) *Report {
		t.Helper()
		rep, err := c.Compress(Task{Key: key, Data: data})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	// mustHit reads key and fails unless the cache serves want.
	mustHit := func(t *testing.T, c *Client, key string, want []byte) {
		t.Helper()
		rep := readRep(t, c, key)
		defer rep.Release()
		if !rep.CacheHit || !bytes.Equal(rep.Data, want) {
			t.Fatalf("read %q: hit=%v, want's bytes=%v", key, rep.CacheHit, bytes.Equal(rep.Data, want))
		}
	}

	t.Run("older write arrives late", func(t *testing.T) {
		c := newClient(t, cacheConfig())
		a, b := gen(0), gen(1)
		write(t, c, "k", gen(2))
		readRep(t, c, "k").Release()
		repA := write(t, c, "k", a)
		write(t, c, "k", b)
		// A's cache step, run only now: it must neither bring back A's
		// bytes nor drop B's entry.
		c.refreshCache(&manager.WriteReq{Key: "k", Data: a, Size: size, Res: manager.Result{Version: repA.version}})
		mustHit(t, c, "k", b)
	})

	t.Run("older write arrives during a newer refresh", func(t *testing.T) {
		c := newClient(t, cacheConfig())
		a, b := gen(0), gen(1)
		write(t, c, "k", gen(2))
		readRep(t, c, "k").Release()
		repA := write(t, c, "k", a)
		repB := write(t, c, "k", b)
		f := c.cache.BeginRefresh("k", repB.version) // B's step, between its check and its commit
		if f == nil {
			t.Fatal("B's refresh did not open")
		}
		c.refreshCache(&manager.WriteReq{Key: "k", Data: a, Size: size, Res: manager.Result{Version: repA.version}})
		buf := bufpool.Get(size)
		copy(buf, b)
		if !c.cache.CommitRefresh(f, buf, readcache.Meta{Size: size}) {
			bufpool.Put(buf)
			t.Error("an older write's late step revoked the newer write's refresh")
		}
		mustHit(t, c, "k", b)
	})

	t.Run("refresh held open across a later write", func(t *testing.T) {
		c := newClient(t, cacheConfig())
		a, b := gen(0), gen(1)
		repA := write(t, c, "k", a)
		readRep(t, c, "k").Release()
		f := c.cache.BeginRefresh("k", repA.version) // A's step, stalled before its commit
		if f == nil || !c.mgr.Published("k", repA.version) {
			t.Fatal("A's refresh did not open")
		}
		write(t, c, "k", b)
		buf := bufpool.Get(size)
		copy(buf, a)
		if c.cache.CommitRefresh(f, buf, readcache.Meta{Size: size}) {
			t.Error("a refresh revoked by a later write committed")
		} else {
			bufpool.Put(buf)
		}
		mustHit(t, c, "k", b)
	})

	t.Run("fill held open across a write", func(t *testing.T) {
		c := newClient(t, cacheConfig())
		a, b := gen(0), gen(1)
		write(t, c, "k", a)
		c.cache.Get("k") // the miss that admits the fill
		f := c.cache.BeginFill("k")
		old, stored, attr, err := c.mgr.ReadData(context.Background(), 0, "k")
		if f == nil || err != nil {
			t.Fatalf("fill did not open: %v", err)
		}
		write(t, c, "k", b)
		if release, ok := c.cache.Commit(f, old, readcache.Meta{
			Size: size, Stored: stored, DataType: attr.Type.String(), Distribution: attr.Dist.String(),
		}); ok {
			release()
			t.Error("a fill of the old bytes committed after the write")
		} else {
			bufpool.Put(old)
		}
		if st := c.CacheStats(); st.Entries != 0 {
			t.Errorf("a write of an uncached key cached it: %+v", st)
		}
		readRep(t, c, "k").Release()
		mustHit(t, c, "k", b)
	})

	t.Run("concurrent", func(t *testing.T) {
		c := newClient(t, cacheConfig())
		const writers, readers, iters = 3, 3, 60
		contents := make([][]byte, writers*iters)
		for i := range contents {
			contents[i] = gen(i)
		}
		var mu sync.Mutex
		byVersion := map[uint64][]byte{}
		for round := 0; round < 4; round++ {
			key := fmt.Sprintf("k%d", round)
			rep := write(t, c, key, contents[0])
			byVersion[rep.version] = contents[0]
			readRep(t, c, key).Release()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						data := contents[w*iters+i]
						rep, err := c.Compress(Task{Key: key, Data: data})
						if err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						byVersion[rep.version] = data
						mu.Unlock()
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						if r == 0 && i%4 == 0 {
							// A demand fill held open across whatever writes
							// land while it reads and yields.
							c.cache.Get(key)
							if f := c.cache.BeginFill(key); f != nil {
								data, stored, attr, err := c.mgr.ReadData(context.Background(), 0, key)
								if err != nil {
									c.cache.Abort(f, false)
									t.Error(err)
									return
								}
								runtime.Gosched()
								if release, ok := c.cache.Commit(f, data, readcache.Meta{
									Size: size, Stored: stored, DataType: attr.Type.String(), Distribution: attr.Dist.String(),
								}); ok {
									release()
								} else {
									bufpool.Put(data)
								}
							}
							continue
						}
						rep, err := c.Decompress(key)
						if err != nil {
							t.Error(err)
							return
						}
						rep.Release()
					}
				}(r)
			}
			wg.Wait()

			var want []byte
			for v, data := range byVersion {
				if c.mgr.Published(key, v) {
					want = data
				}
			}
			if want == nil {
				t.Fatalf("%s: the directory names none of the writes' versions", key)
			}
			rep = readRep(t, c, key)
			if rep.CacheHit && !bytes.Equal(rep.Data, want) {
				t.Errorf("%s: the cache serves bytes other than the directory's write", key)
			}
			rep.Release()
		}
		st := c.CacheStats()
		t.Logf("refreshes %d, invalidations %d, hits %d, misses %d", st.Refreshes, st.Invalidations, st.Hits, st.Misses)
		if st.Refreshes == 0 {
			t.Error("no overwrite refreshed a resident entry")
		}
	})
}

// TestSequentialPrefetchWarmsCache: reading a run of sequential keys must
// make the prefetcher decompress the next keys ahead of demand, so the
// first demand read of the predicted key is already a cache hit.
func TestSequentialPrefetchWarmsCache(t *testing.T) {
	cfg := cacheConfig()
	cfg.DisablePrefetch = false
	cfg.ReadCacheMinTouches = 2 // demand reads below are single-touch: any resident entry came from prefetch
	c := newClient(t, cfg)
	data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 64<<10, 3)
	for i := 0; i < 8; i++ {
		if _, err := c.Compress(Task{Key: fmt.Sprintf("s%d", i), Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		readRep(t, c, fmt.Sprintf("s%d", i)).Release()
	}
	// The run s0,s1,s2 predicts s3 and s4; wait for the worker to commit.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := c.CacheStats()
		if st.PrefetchIssued >= 2 && st.Entries >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prefetcher never warmed the predicted keys: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	rep := readRep(t, c, "s3")
	if !rep.CacheHit {
		t.Error("demand read of the predicted key must hit the prefetched entry")
	}
	if !bytes.Equal(rep.Data, data) {
		t.Error("prefetched entry holds wrong bytes")
	}
	rep.Release()
	if st := c.CacheStats(); st.PrefetchUsed < 1 {
		t.Errorf("stats = %+v, want PrefetchUsed >= 1", st)
	}
}

// TestPrefetchIdleOnRandomReads: readahead is the prefetcher's only job,
// so random reads over 64 keys with no ascending run of three issue
// nothing. A closing run s0..s2 proves the worker was alive: its two
// fills must be the only ones issued.
func TestPrefetchIdleOnRandomReads(t *testing.T) {
	cfg := cacheConfig()
	cfg.DisablePrefetch = false
	cfg.ReadCacheFraction = 16 * (16 << 10) / float64(DefaultTiers()[0].CapacityBytes)
	cfg.ReadCacheMinTouches = 2
	c := newClient(t, cfg)
	data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 16<<10, 3)
	for i := 0; i < 64; i++ {
		if _, err := c.Compress(Task{Key: fmt.Sprintf("r%d", i), Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Compress(Task{Key: fmt.Sprintf("s%d", i), Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	prev, run := -2, 0
	for i := 0; i < 600; i++ {
		k := rng.Intn(64)
		if k == prev+1 && run == 2 {
			continue // keep the stream free of ascending runs of three
		}
		if k == prev+1 {
			run++
		} else {
			run = 1
		}
		prev = k
		readRep(t, c, fmt.Sprintf("r%d", k)).Release()
	}
	for i := 0; i < 3; i++ {
		readRep(t, c, fmt.Sprintf("s%d", i)).Release()
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.CacheStats().PrefetchIssued < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := c.CacheStats(); st.PrefetchIssued != 2 {
		t.Fatalf("PrefetchIssued = %d, want 2 (the closing run's fills only)", st.PrefetchIssued)
	}
}

// TestRefusedFillLeavesBufferWithReport: a demand fill the cache refuses
// because the LRU victim has more recent reads leaves the decoded buffer
// with the Report alone. Releasing it twice puts it back once, the
// refusals count as Rejects, and the arena gets back every buffer the
// reads took.
func TestRefusedFillLeavesBufferWithReport(t *testing.T) {
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(false)
	cfg := cacheConfig()
	cfg.EnableTelemetry = true
	cfg.ReadCacheFraction = 2 * (64 << 10) / float64(DefaultTiers()[0].CapacityBytes) // two entries
	c := newClient(t, cfg)
	data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 64<<10, 3)
	keys := []string{"hot-a", "hot-b", "cold-a", "cold-b", "cold-c", "cold-d"}
	for _, key := range keys {
		if _, err := c.Compress(Task{Key: key, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		readRep(t, c, keys[i%2]).Release()
	}
	before := c.CacheStats()
	hit0, miss0, _, put0 := bufpool.Stats()
	for _, key := range keys[2:] {
		rep := readRep(t, c, key)
		if rep.CacheHit || !bytes.Equal(rep.Data, data) {
			t.Fatalf("read %q: hit=%v, bytes ok=%v", key, rep.CacheHit, bytes.Equal(rep.Data, data))
		}
		rep.Release()
		rep.Release()
	}
	hit1, miss1, _, put1 := bufpool.Stats()
	if gets, puts := hit1+miss1-hit0-miss0, put1-put0; gets != puts {
		t.Errorf("arena gets = %d, puts = %d over the refused reads", gets, puts)
	}
	st := c.CacheStats()
	if st.Rejects-before.Rejects != 4 || st.Admissions != before.Admissions {
		t.Errorf("stats = %+v (before %+v), want 4 more Rejects and no admission", st, before)
	}
	if got := c.Snapshot().Counters["hc_cache_rejects_total"]; got != st.Rejects {
		t.Errorf("hc_cache_rejects_total = %v, want %d", got, st.Rejects)
	}
}

// TestPrefetchCancellationStorm extends the cancellation-storm suite to
// the prefetching read path: clients are opened, hammered with reads
// (many under already-cancelled contexts) that keep the prefetch worker
// busy, and torn down immediately — repeatedly — without leaking a
// single goroutine or wedging Close.
func TestPrefetchCancellationStorm(t *testing.T) {
	before := runtime.NumGoroutine()
	data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 32<<10, 3)
	for iter := 0; iter < 4; iter++ {
		cfg := cacheConfig()
		cfg.DisablePrefetch = false
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if _, err := c.Compress(Task{Key: fmt.Sprintf("s%d", i), Data: data}); err != nil {
				t.Fatal(err)
			}
		}
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		for i := 0; i < 6; i++ {
			key := fmt.Sprintf("s%d", i%4)
			if i%3 == 0 {
				// Pre-cancelled demand reads still record accesses and kick
				// the prefetcher before failing.
				if _, err := c.DecompressContext(cancelled, key); err == nil {
					t.Error("pre-cancelled read succeeded")
				}
				continue
			}
			rep, err := c.Decompress(key)
			if err != nil {
				t.Fatal(err)
			}
			rep.Release()
		}
		// Close races the prefetch worker mid-pass: it must cancel any
		// in-flight speculative read and join before teardown.
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines leaked across prefetching clients: %d -> %d", before, after)
	}
}

// TestHotReadSpeedupGate enforces the read-acceleration acceptance bar:
// on a zipfian-hot read set, the cache must deliver at least a 5x
// hot-read throughput speedup over the uncached tier-walk-plus-codec
// path (bench/'s zipf_reread workload is the standing measurement).
func TestHotReadSpeedupGate(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement is meaningless under -short")
	}
	if raceEnabled {
		t.Skip("-race distorts the codec/cache cost ratio; the gate is meaningless")
	}
	data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 256<<10, 3)
	const hotKeys = 4
	const rounds = 50
	run := func(frac float64) (float64, CacheStats) {
		cfg := cacheConfig()
		cfg.ReadCacheFraction = frac
		c := newClient(t, cfg)
		for k := 0; k < hotKeys; k++ {
			if _, err := c.Compress(Task{Key: fmt.Sprintf("hot%d", k), Data: data,
				DataType: "float", Distribution: "gamma"}); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < hotKeys; k++ { // warm: models, OS caches, admission
			readRep(t, c, fmt.Sprintf("hot%d", k)).Release()
		}
		begin := time.Now()
		for r := 0; r < rounds; r++ {
			for k := 0; k < hotKeys; k++ {
				readRep(t, c, fmt.Sprintf("hot%d", k)).Release()
			}
		}
		return float64(rounds*hotKeys) / time.Since(begin).Seconds(), c.CacheStats()
	}
	off, _ := run(0)
	on, st := run(0.25)
	hitRatio := float64(st.Hits) / float64(st.Hits+st.Misses)
	speedup := on / off
	t.Logf("hot reads: cache off %.0f ops/s, cache on %.0f ops/s: %.1fx speedup, hit ratio %.3f", off, on, speedup, hitRatio)
	if speedup < 5 {
		t.Errorf("hot-read speedup = %.2fx, want >= 5x", speedup)
	}
}

// TestWriteP99RegressionGate enforces the no-write-regression bar: with
// the cache enabled, write p99 must stay within 10% of cache-off (plus a
// small absolute allowance for CI timer noise — the write path only
// gained one map lookup per overwrite).
func TestWriteP99RegressionGate(t *testing.T) {
	if testing.Short() {
		t.Skip("latency measurement is meaningless under -short")
	}
	if raceEnabled {
		t.Skip("-race distorts latency; the gate is meaningless")
	}
	data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 256<<10, 3)
	const total = 1200
	side := func(frac float64) func() float64 {
		c := newClient(t, Config{ReadCacheFraction: frac})
		writeP99(t, c, data, 200) // warm-up
		return func() float64 { return writeP99(t, c, data, total) }
	}
	if r := medianPairRatio(t, side(0), side(0.25), p99OverLimit(0.10)); r > 1 {
		t.Errorf("write p99 with cache on is %.2fx its allowance (off + 10%% + 2ms, median of %d pairs), want <= 1", r, gatePairs)
	}
}
