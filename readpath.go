package hcompress

// This file is the shard's face of the read accelerator
// (internal/readcache): the cache-hit fast path of the read pipeline, the
// readahead the router's prefetch worker runs on it, and the CacheStats
// surface. The cache itself — admission, refcounting, LRU, invalidation
// tokens — lives in internal/readcache; everything here is wiring it
// into the pipeline's lifecycle, telemetry, and fanout pool.

import (
	"context"

	"hcompress/internal/bufpool"
	"hcompress/internal/readcache"
	"hcompress/internal/telemetry"
)

// cacheGet is the telemetry-free core of the hit path: look key up,
// record the access (feeding admission counts and the prefetcher's
// ring), and on a hit assemble a report sharing the cached buffer under
// a refcount pin. A hit costs zero virtual seconds and never touches the
// manager, the store, or the predictor. Called with c.mu read-held and
// c.cache non-nil.
func (c *Shard) cacheGet(key string) (*Report, readcache.Meta, bool) {
	data, meta, release, ok := c.cache.Get(key)
	if !ok {
		return nil, meta, false
	}
	rep := &Report{
		Key:           key,
		OriginalBytes: meta.Size,
		StoredBytes:   meta.Stored,
		DataType:      meta.DataType,
		Distribution:  meta.Distribution,
		Data:          data,
		CacheHit:      true,
		release:       release,
	}
	if meta.Stored > 0 {
		rep.Ratio = float64(meta.Size) / float64(meta.Stored)
	}
	return rep, meta, true
}

// cacheHitTrace emits the hit's span tree: a zero-width root at the
// current virtual time with a single zero-width "cache" leaf — the op
// consumed no modeled time, walked no tiers, and ran no codec, and the
// trace says exactly that.
func (c *Shard) cacheHitTrace(ri telemetry.ReqInfo, key string, meta readcache.Meta) {
	if c.sink == nil {
		return
	}
	now := c.clock.Now()
	spans := [2]TraceSpan{
		{Record: "span", Trace: ri.ID, Span: 1, Tenant: ri.Tenant, Class: ri.Class,
			Op: "decompress", Key: key, Stage: "op",
			VStart: now, VEnd: now, StoredBytes: meta.Stored},
		{Record: "span", Trace: ri.ID, Span: 2, Parent: 1, Tenant: ri.Tenant, Class: ri.Class,
			Op: "decompress", Key: key, Stage: "cache",
			VStart: now, VEnd: now, Bytes: meta.Size},
	}
	c.sink.EmitBatch(func(buf []byte) []byte {
		l := traceLines{buf: buf}
		l.span(&spans[0])
		l.span(&spans[1])
		return l.buf
	})
}

// Prefetcher policy: the cache follows ascending runs of up to
// prefetchRuns key prefixes at once, a run is read prefetchDepth keys
// ahead, and one wake-up fills at most prefetchPerPass keys per shard.
const (
	prefetchRuns    = 256
	prefetchDepth   = 2
	prefetchPerPass = 8
)

// prefetchOne warms one predicted key: an untimed read through the
// manager (no tier lane, no virtual time, no predictor feedback — the
// modeled timeline cannot see speculation) committed into the cache.
// It holds the read lock for the one fill and skips a closed shard.
// Sequential predictions routinely run past the last written key, so a
// nonexistent key is simply not a candidate rather than a failure.
func (c *Shard) prefetchOne(ctx context.Context, key string) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return
	}
	if _, _, ok := c.mgr.TaskInfo(key); !ok {
		return
	}
	f := c.cache.BeginPrefetch(key)
	if f == nil {
		return
	}
	data, stored, attr, err := c.mgr.ReadData(ctx, c.clock.Now(), key)
	if err != nil {
		c.cache.Abort(f, ctx.Err() != nil)
		return
	}
	if _, ok := c.cache.Commit(f, data, readcache.Meta{
		Size: int64(len(data)), Stored: stored,
		DataType: attr.Type.String(), Distribution: attr.Dist.String(),
	}); !ok {
		bufpool.Put(data) // aborted mid-read or no room: the bytes never cache
	}
}

// CacheStats is the read accelerator's counter snapshot: occupancy,
// hit/miss/admission traffic, and the prefetcher's issue/use accounting.
// The same numbers are exported as hc_cache_* / hc_prefetch_* metrics
// when telemetry is on; this typed surface (Client.CacheStats,
// Router.CacheStats, hctool -cache) works either way.
type CacheStats = readcache.Stats

// CacheStats snapshots the shard's read-cache counters. All-zero when
// the cache is disabled (ReadCacheFraction 0).
func (c *Shard) CacheStats() CacheStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.cache == nil {
		return CacheStats{}
	}
	return c.cache.Stats()
}
