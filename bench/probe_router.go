package main

import (
	"fmt"
	"slices"
	"time"

	"hcompress"
)

// probeRouter measures what routing adds: the same operation through a
// four-shard Router and directly on the owning Shard, interleaved so the
// two see the same machine; the cost of the hash; how evenly the
// benchmark's key names spread; and — one rep each — how the workload's
// own stream scales from one shard to four.
func probeRouter(e *probeEnv) {
	r, err := hcompress.NewRouter(e.glueConfig(), 4)
	if !e.must(err, "hcompress.NewRouter") {
		return
	}
	defer func() { e.must(r.Close(), "Router.Close") }()

	n := e.iters(2000) / 2 * 2
	var viaRouter, direct []float64
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("g-%d", i)
		want := e.sample(i)
		var target interface {
			Compress(hcompress.Task) (*hcompress.Report, error)
			Decompress(string) (*hcompress.Report, error)
			Delete(string) error
		} = r
		if i%2 == 1 {
			target = r.Shard(r.ShardFor(key))
		}
		start := time.Now()
		_, err := target.Compress(hcompress.Task{Key: key, Data: want})
		e.must(err, "router probe Compress")
		rep, err := target.Decompress(key)
		e.must(err, "router probe Decompress")
		e.must(target.Delete(key), "router probe Delete")
		ns := float64(time.Since(start)) / 3
		if rep != nil {
			e.verify(rep.Data, want, "router")
			rep.Release()
		}
		if i%2 == 0 {
			viaRouter = append(viaRouter, ns)
		} else {
			direct = append(direct, ns)
		}
	}
	e.add("router.glue_us_op", (median(viaRouter)-median(direct))/1e3, "us", n)

	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("c0-%d", i+1)
	}
	nHash := e.iters(400000)
	e.add("router.shardfor_ns", perOp(nHash, func(i int) { r.ShardFor(keys[i%len(keys)]) }), "ns", nHash)
	if e.def.shards == 1 {
		// A one-shard workload has no spread of its own; report how the
		// benchmark's key names would spread over four shards.
		counts := make([]int, r.Shards())
		for _, k := range keys {
			counts[r.ShardFor(k)]++
		}
		e.add("router.shard_imbalance", float64(slices.Max(counts))/(float64(len(keys))/float64(len(counts))), "ratio", len(keys))
	}

	scale := func(shards int) float64 {
		rep, err := runRep(e.def, e.corp, e.o, repSpec{dur: e.dur / 2, shards: shards})
		if !e.must(err, "scale rep") {
			return 0
		}
		e.attempted += rep.m.attempted + rep.setupAttempted
		e.failed += rep.m.failed + rep.setupFailed
		return rep.opsPerSec()
	}
	one, four := scale(1), scale(4)
	e.add("router.scale_eff_4", ratio(four, one), "ratio", 2)
}
