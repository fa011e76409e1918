package main

import "hcompress"

// archiveRW is the codec workload: under PriorityArchival every sub-task
// is stored with bsc, so compression and decompression are nearly all of
// the time in both directions.
var archiveRW = workloadDef{
	name: "archive_rw",
	why: "every sub-task is bsc, so the codec is >90 % of the time in both directions; writes sit beside " +
		"reads of the same codec so a compress gain that costs decode shows; control-plane changes must show nothing",
	config: func() hcompress.Config {
		return hcompress.Config{Tiers: tiers16(), Priorities: hcompress.PriorityArchival}
	},
	shards: 1,
	sizes:  []int{64 << 10},
	warmup: 75,
	newStream: func(d *driver, clients int) stream {
		// 64 KiB writes to fresh keys, 256 live; one read-back per two writes.
		return &windowStream{d: d, win: window{limit: max(256/clients, 8)}, readEvery: 3}
	},
}
