package main

import "hcompress"

// asyncIngest is the control-plane workload: under PriorityAsync HCDP
// stores every sub-task with codec "none", so the codec does nothing and
// what remains is the program's own glue.
var asyncIngest = workloadDef{
	name: "async_ingest",
	why: "HCDP picks none for every sub-task, so shard glue, analyzer, plan cache, manager, fanout, " +
		"mem store and bufpool are the whole cost; a codec change must show no movement here",
	config: func() hcompress.Config {
		return hcompress.Config{Tiers: tiers16(), Priorities: hcompress.PriorityAsync}
	},
	shards: 1,
	sizes:  []int{64 << 10},
	warmup: 5000,
	newStream: func(d *driver, clients int) stream {
		// 64 KiB writes to fresh keys, 512 live; every fifth call reads.
		return &windowStream{d: d, win: window{limit: max(512/clients, 8)}, readEvery: 5}
	},
}
