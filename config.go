package hcompress

import (
	"fmt"
	"io"
	"time"

	"hcompress/internal/codec"
	"hcompress/internal/seed"
	"hcompress/internal/tier"
)

// TierSpec describes one storage tier, fastest-first. It mirrors the
// information the paper says "is provided by the user" (bandwidth, device
// location, interface), extended with the tier's payload backend and its
// dollar pricing.
type TierSpec struct {
	// Name identifies the tier (e.g. "ram", "nvme", "burstbuffer", "pfs").
	Name string
	// CapacityBytes is the usable capacity of the tier.
	CapacityBytes int64
	// LatencySec is the per-operation access latency in seconds.
	LatencySec float64
	// BandwidthBps is the aggregate tier bandwidth in bytes/second.
	BandwidthBps float64
	// Lanes is the tier's hardware concurrency (devices x channels).
	Lanes int
	// Backend selects the tier's payload plane: "" or "mem" keeps
	// payloads in process memory (the default, byte-identical to
	// previous releases), "file" journals them into append-only segment
	// files under Config.DataDir and survives a crash, "cloud" models an
	// object store with $-cost metering.
	Backend string
	// CostPerGBMonth prices keeping one GB resident on this tier for a
	// month; EgressCostPerGB prices reading one GB out. Both feed the
	// cloud backend's cost meter and, weighted by Priorities.Cost, the
	// placement objective. Zero keeps the tier free.
	CostPerGBMonth  float64
	EgressCostPerGB float64
}

// spec is the single conversion point between the public TierSpec and
// the internal tier.Spec — every field crosses here and nowhere else.
func (s TierSpec) spec() tier.Spec {
	return tier.Spec{
		Name:            s.Name,
		Capacity:        s.CapacityBytes,
		Latency:         s.LatencySec,
		Bandwidth:       s.BandwidthBps,
		Lanes:           s.Lanes,
		Backend:         s.Backend,
		CostPerGBMonth:  s.CostPerGBMonth,
		EgressCostPerGB: s.EgressCostPerGB,
	}
}

// Priorities are the application's compression priorities (Table II of the
// paper): the relative weight of compression speed, decompression speed,
// and compression ratio in the placement cost function. They need not sum
// to one; they are normalized internally.
type Priorities struct {
	CompressionSpeed   float64
	DecompressionSpeed float64
	Ratio              float64
	// Cost weighs the dollar price of placement (per-tier $/GB-month +
	// egress) against the three time-based terms. Zero — the default —
	// keeps the planner's arithmetic bit-identical to a purely
	// time-based objective; a positive weight steers placement toward
	// cheap tiers.
	Cost float64
}

// Priority presets from Table II.
var (
	// PriorityAsync suits asynchronous I/O: only the compression stall
	// is on the critical path.
	PriorityAsync = Priorities{CompressionSpeed: 1}
	// PriorityArchival suits archival I/O: ratio is everything.
	PriorityArchival = Priorities{Ratio: 1}
	// PriorityReadAfterWrite suits producer/consumer workflows.
	PriorityReadAfterWrite = Priorities{CompressionSpeed: 0.3, DecompressionSpeed: 0.3, Ratio: 0.4}
	// PriorityEqual weighs all three metrics evenly (the evaluation
	// default in the paper).
	PriorityEqual = Priorities{CompressionSpeed: 1, DecompressionSpeed: 1, Ratio: 1}
)

func (p Priorities) toWeights() seed.Weights {
	return seed.Weights{
		Compression:   p.CompressionSpeed,
		Decompression: p.DecompressionSpeed,
		Ratio:         p.Ratio,
		Cost:          p.Cost,
	}.Normalize()
}

// Config configures a Client. The zero value is usable: a laptop-scale
// four-tier hierarchy, equal priorities, and the builtin cost seed.
type Config struct {
	// Tiers is the storage hierarchy, fastest-first. Default: a scaled
	// Ares-like hierarchy (256 MiB RAM / 1 GiB NVMe / 4 GiB BB / 64 GiB
	// PFS) suitable for in-process use.
	Tiers []TierSpec
	// DataDir roots the on-disk state of file-backed tiers: a tier whose
	// spec names Backend "file" journals its payloads under
	// DataDir/<shard>/<tier-name>. Required when any tier is
	// file-backed; ignored otherwise.
	DataDir string
	// Priorities select the compression cost weighting. Zero value means
	// equal weights.
	Priorities Priorities
	// SeedPath optionally names a profiler-generated JSON seed to
	// bootstrap the cost models. Empty means the builtin seed.
	SeedPath string
	// SaveSeedOnClose writes the learned cost table back into SeedPath's
	// costs at Close (the paper's "store the latest model back to the
	// JSON seed"), so a client reopened on that seed resumes from it. A
	// Router's shards share one table, so it holds what every shard
	// learned.
	SaveSeedOnClose bool
	// Codecs restricts the library pool to the named codecs (default:
	// all twelve).
	Codecs []string
	// MonitorIntervalSec is the System Monitor refresh period in virtual
	// seconds (default 0: always fresh).
	MonitorIntervalSec float64
	// FeedbackInterval overrides how many operations elapse between
	// feedback-loop model updates (default: the seed's value).
	FeedbackInterval int
	// Parallelism bounds the worker pool that fans a task's sub-task
	// codec work across goroutines (default 0: GOMAXPROCS). The pool is
	// per Router: every shard of a NewRouter shares it. Virtual-time
	// accounting is deterministic regardless of this setting — only
	// wall-clock work overlaps; use 1 to force fully serial execution.
	Parallelism int
	// DisableCompression turns HCompress into a pure multi-tier buffer
	// (the paper's MTNC baseline).
	DisableCompression bool
	// EnableTelemetry turns on the metrics registry, trace spans, and
	// decision-audit records (Snapshot, WriteMetrics, Audits). Telemetry
	// is also enabled implicitly by MetricsAddr, TraceWriter, or the
	// SlowOp* knobs. Off, the
	// pipeline carries no instruments at all (nil-registry fast path), so
	// the zero-value Config pays nothing for observability.
	EnableTelemetry bool
	// MetricsAddr, when non-empty, starts an HTTP listener (e.g.
	// "127.0.0.1:9090" or ":0") serving Prometheus text format on
	// /metrics and expvar JSON on /debug/vars. A Router opens one
	// listener whatever its shard count, serving the merged exposition of
	// Router.WriteMetrics; it is closed by Close, and the bound address is
	// reported by Client.MetricsAddr and Router.MetricsAddr.
	MetricsAddr string
	// TraceWriter, when non-nil, receives one JSON line per trace span
	// and decision-audit record. Spans carry virtual-clock timestamps
	// only, so a serial workload produces byte-identical output
	// regardless of Parallelism — diffable in CI. A Router writes every
	// shard's records through one sink, so they interleave line-atomically.
	TraceWriter io.Writer
	// AuditLogSize bounds the in-memory decision-audit ring returned by
	// Client.Audits (default 1024 when telemetry is on).
	AuditLogSize int
	// SlowOpThreshold, when positive, records every operation whose wall
	// latency reaches the threshold into the slow-op ring (Client.SlowOps,
	// hctool -slow) with its full stage breakdown and HCDP audits.
	SlowOpThreshold time.Duration
	// SlowOpSampleEvery, when positive, additionally records every Nth
	// completed operation regardless of latency, so the ring always holds
	// a background sample to compare outliers against. 1 records
	// everything; 0 (the default) disables sampling.
	SlowOpSampleEvery int
	// SlowOpLogSize bounds the slow-op ring (default 256 when either
	// SlowOpThreshold or SlowOpSampleEvery is set).
	SlowOpLogSize int
	// DemotionInterval, when positive, starts a background demoter: a
	// goroutine that wakes every interval and, for each tier filled past
	// its high watermark, trickles the oldest tasks one tier down in
	// short bounded slices until the low watermark is reached — the
	// paper's asynchronous buffer flush, without stalling the data path.
	// The watermarks are 85 % and 70 % of the tier's capacity. Zero (the
	// default) leaves demotion off.
	DemotionInterval time.Duration
	// DemotionSliceSubTasks bounds how many sub-tasks one demotion slice
	// may scan while holding the manager lock (default 64); smaller
	// slices shorten the pauses demotion injects into the data path.
	DemotionSliceSubTasks int
	// ReadCacheFraction, when positive, enables the per-shard read
	// accelerator: an admission-controlled cache of decompressed payloads
	// sized at this fraction of the fastest tier's capacity (e.g. 0.25
	// keeps up to a quarter of tier 0 in decompressed hot blocks). A hit
	// skips the tier walk and the codec entirely and costs zero virtual
	// seconds — the cache is client-side DRAM, off the modeled timeline.
	// Entries are invalidated on overwrite, delete, demotion, and tier
	// health transitions. Note the ownership nuance: with the cache on, a
	// hit's Report.Data is shared with the cache — treat it as read-only
	// until Release. Zero (the default) disables the cache and keeps the
	// read path byte-identical to previous releases.
	ReadCacheFraction float64
	// ReadCacheMinTouches is the admission gate: a key must be read this
	// many times before its payload may cache (default 2 — single-touch
	// keys never cache). Past the gate, a payload that would evict the LRU
	// entry is refused when that entry has more recent reads, so one-shot
	// scans cannot flush the hot set.
	ReadCacheMinTouches int
	// DisablePrefetch turns off the background readahead worker that
	// otherwise accompanies the read cache: when reads walk an ascending
	// run of keys ending in a decimal index (blk-5, blk-6, blk-7), it
	// decompresses the next two keys ahead of demand at Batch priority (it
	// never starves Interactive operations). Read streams without such
	// runs never wake it.
	DisablePrefetch bool
	// FaultInjector, when non-nil, scripts deterministic faults against
	// the tiered store: outages, transient error windows, latency
	// spikes, read corruption, and capacity lies, all keyed to the
	// virtual clock. Nil (the default) injects nothing and costs
	// nothing on the data path. The fault discipline itself is fixed: a
	// transient fault is retried up to 3 times per tier (1 ms of virtual
	// backoff, doubling to a 250 ms cap), 3 consecutive store errors take
	// a tier offline, and its first recovery probe comes 0.5 virtual
	// seconds later, doubling per failed probe.
	FaultInjector *FaultInjector

	// modeled switches the manager to the deterministic ModelOracle and
	// disables payload retention. Test-only (unexported): the trace
	// determinism contract is asserted against modeled costs because the
	// real oracle measures wall clocks.
	modeled bool
}

// telemetryEnabled reports whether any telemetry surface is requested.
// The slow-op knobs imply telemetry the same way MetricsAddr and
// TraceWriter do: a slow-op record is a telemetry artifact, and its wall
// clocks come from the same instrumentation points.
func (c Config) telemetryEnabled() bool {
	return c.EnableTelemetry || c.MetricsAddr != "" || c.TraceWriter != nil ||
		c.SlowOpThreshold > 0 || c.SlowOpSampleEvery > 0
}

// DefaultTiers returns the default laptop-scale hierarchy. The dollar
// prices ballpark 2020s cloud/on-prem rates (DRAM ≫ NVMe ≫ HDD-backed
// PFS); they only matter when Priorities.Cost is nonzero.
func DefaultTiers() []TierSpec {
	return []TierSpec{
		{Name: "ram", CapacityBytes: 256 << 20, LatencySec: 1e-6, BandwidthBps: 6e9, Lanes: 4, CostPerGBMonth: 3.0},
		{Name: "nvme", CapacityBytes: 1 << 30, LatencySec: 30e-6, BandwidthBps: 2e9, Lanes: 2, CostPerGBMonth: 0.30},
		{Name: "burstbuffer", CapacityBytes: 4 << 30, LatencySec: 400e-6, BandwidthBps: 1e9, Lanes: 2, CostPerGBMonth: 0.10},
		{Name: "pfs", CapacityBytes: 64 << 30, LatencySec: 5e-3, BandwidthBps: 500e6, Lanes: 4, CostPerGBMonth: 0.04},
	}
}

// CloudTierSpec returns a modeled object-store tier (S3-class pricing:
// $0.023/GB-month storage, $0.09/GB egress; 50 ms latency) to append
// below DefaultTiers as the hierarchy's cold floor. Capacity is the
// caller's choice — pick something effectively unbounded relative to
// the workload.
func CloudTierSpec(capacityBytes int64) TierSpec {
	s := tier.CloudSpec(capacityBytes)
	return TierSpec{
		Name:            s.Name,
		CapacityBytes:   s.Capacity,
		LatencySec:      s.Latency,
		BandwidthBps:    s.Bandwidth,
		Lanes:           s.Lanes,
		Backend:         s.Backend,
		CostPerGBMonth:  s.CostPerGBMonth,
		EgressCostPerGB: s.EgressCostPerGB,
	}
}

func (c Config) hierarchy() (tier.Hierarchy, error) {
	specs := c.Tiers
	if len(specs) == 0 {
		specs = DefaultTiers()
	}
	var h tier.Hierarchy
	for _, s := range specs {
		h.Tiers = append(h.Tiers, s.spec())
	}
	if err := h.Validate(); err != nil {
		return tier.Hierarchy{}, fmt.Errorf("hcompress: %w", err)
	}
	return h, nil
}

// validate runs every check that needs no resource, so a pipeline is
// never half-built around a setting that was wrong from the start. It
// returns the hierarchy it validated.
func (c Config) validate() (tier.Hierarchy, error) {
	h, err := c.hierarchy()
	if err != nil {
		return h, err
	}
	if c.ReadCacheFraction < 0 || c.ReadCacheFraction > 1 {
		return h, fmt.Errorf("hcompress: ReadCacheFraction %v: need 0 <= fraction <= 1", c.ReadCacheFraction)
	}
	for _, name := range c.Codecs {
		if _, err := codec.ByName(name); err != nil {
			return h, fmt.Errorf("hcompress: %w", err)
		}
	}
	return h, nil
}
