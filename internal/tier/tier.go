// Package tier defines storage-tier specifications and the hierarchy
// presets used across the paper's experiments (Tables III and IV, and the
// per-figure capacity configurations).
//
// Tier order is significant everywhere in HCompress: index 0 is the
// highest (fastest, smallest) tier, mirroring the paper's convention that
// "higher tiers have a smaller index" with l = 0 representing RAM.
package tier

import "fmt"

// Well-known tier names used by the presets.
const (
	nameRAM   = "ram"
	nameNVM   = "nvme"
	nameBB    = "burstbuffer"
	namePFS   = "pfs"
	nameCloud = "cloud"
)

// Payload-backend kinds a Spec may name. The empty string means
// BackendMem.
const (
	BackendMem   = "mem"   // payloads held in process memory (default)
	BackendFile  = "file"  // append-only segments + WAL under the store's DataDir
	BackendCloud = "cloud" // modeled object store with $-cost metering
)

// Spec describes one storage tier as the System Monitor and the HCDP
// engine see it: capacity, access latency, aggregate bandwidth, and the
// number of hardware lanes (the paper's Concurrency(L) term). Backend
// selects the payload plane behind the tier, and the two cost fields
// price its use — both feed the Place DP's optional $-cost objective
// term and the cloud backend's cost meter; zero costs keep the tier free
// and the placement objective purely time-based.
type Spec struct {
	Name      string  `json:"name"`
	Capacity  int64   `json:"capacity_bytes"`
	Latency   float64 `json:"latency_sec"`
	Bandwidth float64 `json:"bandwidth_bytes_per_sec"`
	Lanes     int     `json:"lanes"`

	// Backend names the payload plane: "" or "mem", "file", "cloud".
	Backend string `json:"backend,omitempty"`
	// CostPerGBMonth is the storage price of keeping one GB resident for
	// a month (e.g. 0.023 for S3-standard-class object storage).
	CostPerGBMonth float64 `json:"cost_per_gb_month,omitempty"`
	// EgressCostPerGB is the price of reading one GB out of the tier.
	EgressCostPerGB float64 `json:"egress_cost_per_gb,omitempty"`
}

// ServiceTime returns the uncontended time to move n bytes through one
// lane of this tier.
func (s Spec) ServiceTime(n int64) float64 {
	return s.Latency + float64(n)/(s.Bandwidth/float64(max(1, s.Lanes)))
}

func (s Spec) String() string {
	return fmt.Sprintf("%s{cap=%s bw=%s/s lat=%.0fus lanes=%d}",
		s.Name, FormatBytes(s.Capacity), FormatBytes(int64(s.Bandwidth)), s.Latency*1e6, s.Lanes)
}

// Hierarchy is an ordered list of tiers, fastest first.
type Hierarchy struct {
	Tiers []Spec `json:"tiers"`
}

// Len returns the number of tiers.
func (h Hierarchy) Len() int { return len(h.Tiers) }

// Concurrency is the sum of hardware lanes across all tiers — the bound
// the problem formulation places on sub-task counts (constraint 2).
func (h Hierarchy) Concurrency() int {
	total := 0
	for _, t := range h.Tiers {
		total += t.Lanes
	}
	return total
}

// Validate checks ordering invariants: at least one tier, positive
// capacities and bandwidths, and (by convention) non-increasing bandwidth
// down the hierarchy is *not* required but capacity must be positive.
func (h Hierarchy) Validate() error {
	if len(h.Tiers) == 0 {
		return fmt.Errorf("tier: hierarchy has no tiers")
	}
	seen := map[string]bool{}
	for i, t := range h.Tiers {
		if t.Name == "" {
			return fmt.Errorf("tier: tier %d has no name", i)
		}
		if seen[t.Name] {
			return fmt.Errorf("tier: duplicate tier name %q", t.Name)
		}
		seen[t.Name] = true
		if t.Capacity <= 0 {
			return fmt.Errorf("tier: %s has non-positive capacity", t.Name)
		}
		if t.Bandwidth <= 0 {
			return fmt.Errorf("tier: %s has non-positive bandwidth", t.Name)
		}
		if t.Lanes <= 0 {
			return fmt.Errorf("tier: %s has non-positive lanes", t.Name)
		}
		if t.Latency < 0 {
			return fmt.Errorf("tier: %s has negative latency", t.Name)
		}
		switch t.Backend {
		case "", BackendMem, BackendFile, BackendCloud:
		default:
			return fmt.Errorf("tier: %s has unknown backend %q", t.Name, t.Backend)
		}
		if t.CostPerGBMonth < 0 {
			return fmt.Errorf("tier: %s has negative storage cost", t.Name)
		}
		if t.EgressCostPerGB < 0 {
			return fmt.Errorf("tier: %s has negative egress cost", t.Name)
		}
	}
	return nil
}

// Ares returns the testbed hierarchy modeled after the paper's Table III
// (the Ares cluster at IIT): 64 compute nodes with node-local RAM buffers
// and NVMe, 4 burst-buffer nodes with SATA SSDs, and a 24-node OrangeFS
// parallel file system, all on 40 GbE. Capacities are passed per call
// because each figure configures them differently.
//
// Per-device characteristics behind the aggregates:
//
//	RAM  (DDR4):   ~6 GB/s/node streaming,  1 us
//	NVMe:          ~2 GB/s/node,            30 us
//	BB (2xSSD):    ~1 GB/s/node over 40GbE, 400 us (network hop)
//	PFS (2TB HDD): ~50 MB/s/node effective through OrangeFS over the
//	               shared network (seek-bound small-block HDD I/O), 5 ms
func Ares(ramCap, nvmeCap, bbCap, pfsCap int64) Hierarchy {
	const (
		computeNodes = 64
		bbNodes      = 4
		pfsNodes     = 24
	)
	return Hierarchy{Tiers: []Spec{
		{Name: nameRAM, Capacity: ramCap, Latency: 1e-6, Bandwidth: 6e9 * computeNodes, Lanes: computeNodes * 2},
		{Name: nameNVM, Capacity: nvmeCap, Latency: 30e-6, Bandwidth: 2e9 * computeNodes, Lanes: computeNodes},
		{Name: nameBB, Capacity: bbCap, Latency: 400e-6, Bandwidth: 1e9 * bbNodes, Lanes: bbNodes * 4},
		{Name: namePFS, Capacity: pfsCap, Latency: 5e-3, Bandwidth: 50e6 * pfsNodes, Lanes: pfsNodes},
	}}
}

// CloudSpec returns a modeled object-store tier: S3-class pricing
// ($0.023/GB-month storage, $0.09/GB egress), a WAN round-trip of
// latency, and enough aggregate bandwidth and lanes that the tier is
// throughput-cheap but latency-expensive — the cold floor demotion
// drains into. Capacity is passed per call (use something effectively
// unbounded relative to the workload).
func CloudSpec(capacity int64) Spec {
	return Spec{
		Name:            nameCloud,
		Capacity:        capacity,
		Latency:         50e-3,
		Bandwidth:       10e9,
		Lanes:           64,
		Backend:         BackendCloud,
		CostPerGBMonth:  0.023,
		EgressCostPerGB: 0.09,
	}
}

// Bytes helpers for readable experiment configs.
const (
	kb = int64(1) << 10
	MB = int64(1) << 20
	GB = int64(1) << 30
	TB = int64(1) << 40
)

// FormatBytes renders a byte count with a binary-unit suffix.
func FormatBytes(n int64) string {
	switch {
	case n >= TB:
		return fmt.Sprintf("%.1fTB", float64(n)/float64(TB))
	case n >= GB:
		return fmt.Sprintf("%.1fGB", float64(n)/float64(GB))
	case n >= MB:
		return fmt.Sprintf("%.1fMB", float64(n)/float64(MB))
	case n >= kb:
		return fmt.Sprintf("%.1fKB", float64(n)/float64(kb))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
