package main

import "hcompress/internal/bufpool"

// probeBufpool times one arena round trip at the workload's block size.
func probeBufpool(e *probeEnv) {
	block := len(e.sample(0))
	n := e.iters(500000)
	e.add("bufpool.get_put_ns", perOp(n, func(int) { bufpool.Put(bufpool.Get(block)) }), "ns", n)
}
