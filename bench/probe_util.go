package main

import (
	"hcompress"
	"hcompress/internal/seed"
	"hcompress/internal/tier"
)

// hierarchy is the workload's tier list in the internal form the layer
// constructors take.
func (e *probeEnv) hierarchy() tier.Hierarchy {
	var h tier.Hierarchy
	for _, s := range e.def.config().Tiers {
		h.Tiers = append(h.Tiers, tier.Spec{
			Name: s.Name, Capacity: s.CapacityBytes, Latency: s.LatencySec,
			Bandwidth: s.BandwidthBps, Lanes: s.Lanes, Backend: s.Backend,
			CostPerGBMonth: s.CostPerGBMonth, EgressCostPerGB: s.EgressCostPerGB,
		})
	}
	return h
}

// weights is the workload's priorities as HCDP cost weights.
func (e *probeEnv) weights() seed.Weights {
	p := e.def.config().Priorities
	return seed.Weights{
		Compression: p.CompressionSpeed, Decompression: p.DecompressionSpeed,
		Ratio: p.Ratio, Cost: p.Cost,
	}.Normalize()
}

// glueConfig is the configuration the router and service probes run
// under: the workload's hierarchy with PriorityAsync, under which every
// sub-task is stored uncompressed. The glue those probes isolate does
// not depend on the codec, and the cheapest operation underneath gives
// the difference of two timings the least noise to drown in.
func (e *probeEnv) glueConfig() hcompress.Config {
	return hcompress.Config{Tiers: e.def.config().Tiers, Priorities: hcompress.PriorityAsync}
}
