package main

import (
	"hcompress/internal/bufpool"
	"hcompress/internal/fanout"
)

// probeFanout times an empty job through a worker pool of the default
// width: the hand-off every operation pays to reach a codec worker, for
// one sub-task and for a batch of eight.
func probeFanout(e *probeEnv) {
	pool := fanout.NewPool(e.def.config().Parallelism)
	defer pool.Close()
	noop := func(*bufpool.Scratch, int) error { return nil }
	n := e.iters(50000)
	e.add("fanout.run1_ns", perOp(n, func(int) { _ = pool.Run(1, noop) }), "ns", n)
	e.add("fanout.run8_ns", perOp(n, func(int) { _ = pool.Run(8, noop) }), "ns", n)
}
