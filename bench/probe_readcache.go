package main

import (
	"fmt"

	"hcompress/internal/bufpool"
	"hcompress/internal/readcache"
)

// probeReadcache times the read cache's two paths at the workload's
// block size: a hit (Get + release) and an admission (Get miss,
// BeginFill, Commit into a full cache, so every commit also evicts).
func probeReadcache(e *probeEnv) {
	block := len(e.sample(0))
	cache := readcache.New(int64(32*block), 1, 256)
	fill := func(key string) {
		cache.Get(key) // the miss is the touch admission needs
		f := cache.BeginFill(key)
		if f == nil {
			return
		}
		data := bufpool.Get(block)
		if release, ok := cache.Commit(f, data, readcache.Meta{Size: int64(block), Stored: int64(block)}); ok {
			release()
		} else {
			bufpool.Put(data)
		}
	}
	fill("hot")
	nHit := e.iters(200000)
	hits := 0
	e.add("readcache.get_hit_ns", perOp(nHit, func(int) {
		if _, _, release, ok := cache.Get("hot"); ok {
			hits++
			release()
		}
	}), "ns", nHit)
	if hits < nHit/5*5 { // perOp runs iters rounded down to five batches
		e.must(fmt.Errorf("a resident key missed %d times", nHit/5*5-hits), "readcache.Get")
	}
	nFill := e.iters(20000)
	e.add("readcache.commit_us", perOp(nFill, func(i int) { fill(fmt.Sprintf("k-%d", i)) })/1e3, "us", nFill)
}
