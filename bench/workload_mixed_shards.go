package main

import (
	"time"

	"hcompress"
)

const mixedBatch = 8

// mixedShards is the multi-shard workload and the only one with
// background work: four shards, each with its own worker pool and a
// demoter ticking every 5 ms, share the host's cores.
var mixedShards = workloadDef{
	name: "mixed_shards",
	why: "router + four per-shard pools + batch path + running demoter + light LZ codecs under the paper's " +
		"default priorities: the only workload with background work and multi-shard oversubscription",
	config: func() hcompress.Config {
		return hcompress.Config{
			Tiers:            tiers16(),
			Priorities:       hcompress.PriorityEqual,
			DemotionInterval: 5 * time.Millisecond,
		}
	},
	shards: 4,
	sizes:  []int{16 << 10, 64 << 10, 256 << 10},
	warmup: 300, // batch calls: 2400 items
	newStream: func(d *driver, clients int) stream {
		return &mixedShardsStream{d: d, win: window{limit: max(64/clients, 2*mixedBatch)}}
	},
}

type mixedShardsStream struct {
	d     *driver
	win   window
	calls int
}

func (s *mixedShardsStream) preload() {}

// step issues one batch of eight: three calls in ten read eight distinct
// uniformly chosen live keys, the others write eight fresh keys whose
// sizes cycle 16/64/256 KiB and delete the oldest beyond the window.
func (s *mixedShardsStream) step() {
	s.calls++
	if c := s.calls % 10; (c == 3 || c == 6 || c == 9) && len(s.win.live) >= mixedBatch {
		picks := s.d.rng.Perm(len(s.win.live))[:mixedBatch]
		es := make([]entry, mixedBatch)
		for i, p := range picks {
			es[i] = s.win.live[p]
		}
		s.d.readBatch(es)
		return
	}
	keys := make([]string, mixedBatch)
	for i := range keys {
		keys[i] = s.d.freshKey()
	}
	for i, want := range s.d.writeBatch(keys) {
		if old, evict := s.win.push(entry{keys[i], want}); evict {
			s.d.remove(old.key, s.d.m.deletes%16 == 0) // every sixteenth must be gone
		}
	}
}
