package main

import (
	"hcompress/internal/monitor"
	"hcompress/internal/store"
)

// probeMonitor times one System Monitor status read at the workload's
// refresh interval (0 = every plan samples every tier).
func probeMonitor(e *probeEnv) {
	st, err := store.Open(e.hierarchy(), store.Options{})
	if !e.must(err, "store.Open") {
		return
	}
	defer st.Close()
	mon := monitor.New(st, e.def.config().MonitorIntervalSec)
	n := e.iters(200000)
	e.add("monitor.status_ns", perOp(n, func(i int) { mon.Status(float64(i)) }), "ns", n)
}
