package main

import (
	"hcompress"
	"hcompress/internal/workload"
)

// zipfReread is the read-path workload: a Zipf-skewed re-read stream over
// a working set 32 times the read cache, with overwrites that must
// invalidate.
//
// The pins are deliberate. Codecs is pinned to lz4 because under
// PriorityReadAfterWrite the choice follows codec speeds measured at run
// time and the same input stored 0.82-0.99 B/B from rep to rep.
// FeedbackInterval is pinned out of reach because with feedback on,
// after 60-115k operations every overwrite is stored "none" for good
// (the predictor's lz4 ratio estimate falls below 1) at a point that
// moves from run to run. Both are findings for a later predictor issue.
var zipfReread = workloadDef{
	name: "zipf_reread",
	why: "read path with the cache far smaller than the data: hits, lz4 decode on miss, admission, eviction, " +
		"invalidation-on-overwrite and the prefetcher all run; ops_s follows the hit rate, read_p50_ms the miss path",
	config: func() hcompress.Config {
		return hcompress.Config{
			Tiers:             tiers16(),
			Priorities:        hcompress.PriorityArchival,
			Codecs:            []string{"lz4"},
			ReadCacheFraction: 0.125, // 2 MiB = 32 blocks of 64 KiB
			FeedbackInterval:  1 << 30,
		}
	},
	shards: 1,
	sizes:  []int{64 << 10},
	warmup: 3000,
	newStream: func(d *driver, clients int) stream {
		n := max(1024/clients, 64)
		return &zipfRereadStream{
			d:      d,
			keys:   make([]entry, n),
			reads:  workload.NewZipf(n, 0.99, d.rng.Int63()),
			writes: workload.NewZipf(n, 0.99, d.rng.Int63()),
		}
	},
}

type zipfRereadStream struct {
	d      *driver
	keys   []entry // Zipf rank → key, shuffled so rank is not load order
	reads  *workload.Zipf
	writes *workload.Zipf
	calls  int
}

// preload writes every key once and shuffles the rank → key mapping.
func (s *zipfRereadStream) preload() {
	for i := range s.keys {
		key := s.d.freshKey()
		s.keys[i] = entry{key, s.d.write(key)}
	}
	s.d.rng.Shuffle(len(s.keys), func(i, j int) { s.keys[i], s.keys[j] = s.keys[j], s.keys[i] })
}

// step reads a Zipf-chosen key; every twentieth call instead overwrites
// a Zipf-chosen key with the next corpus buffer, after which a read of it
// must return the new bytes (a stale cache entry fails the oracle).
func (s *zipfRereadStream) step() {
	s.calls++
	if s.calls%20 == 0 {
		e := &s.keys[s.writes.Next()]
		e.want = s.d.write(e.key)
		return
	}
	s.d.read(s.keys[s.reads.Next()])
}
