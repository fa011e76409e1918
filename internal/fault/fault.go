// Package fault implements a deterministic, virtual-clock-driven fault
// injector for the tiered store. Faults are scripted as per-tier windows
// on the virtual timeline — outages (sticky or transient), per-key error
// rates, latency spikes, read corruption, and capacity lies — so tests
// can replay the same outage schedule and observe the same failures,
// byte for byte.
//
// A Schedule is immutable once built and every Decide call is a pure
// function of (virtual time, tier, op, key): no RNG state, no counters,
// no locks. Rate-limited faults hash the sub-task key instead of rolling
// dice, so which keys fail is stable regardless of the order concurrent
// workers reach the store in.
package fault

import (
	"fmt"
	"hash/fnv"

	"hcompress/internal/hcerr"
)

// Op classifies the store operation a fault decision applies to.
type Op uint8

const (
	// OpPut is a sub-task write (Put/PutOwned and the write side of Move).
	OpPut Op = iota
	// OpGet is a sub-task read (Get/Peek/ReadTime).
	OpGet
)

// Decision is the injector's verdict on one store operation.
type Decision struct {
	// Err fails the operation. Sticky outages wrap hcerr.ErrTierOffline;
	// transient faults are tagged with hcerr.MarkTransient so retry
	// policies can tell them apart.
	Err error
	// Latency is added virtual time even when the operation succeeds.
	Latency float64
	// Corrupt asks the store to hand back a bit-flipped copy of the
	// payload (reads only) — the stored bytes stay intact, so the fault
	// is transient and CRC verification catches it without destroying
	// the blob.
	Corrupt bool
}

// Injector is the store's fault hook. Implementations must be safe for
// concurrent use and deterministic in (now, tier, op, key, size).
type Injector interface {
	// Decide rules on one operation at virtual time now.
	Decide(now float64, tier int, op Op, key string, size int64) Decision
	// ReportedCapacity lets the injector lie about a tier's capacity in
	// monitoring snapshots (real is returned unchanged when no lie is
	// active). The lie affects what planners see, not what the tier
	// actually holds — exactly the stale/false telemetry a real System
	// Monitor can serve.
	ReportedCapacity(now float64, tier int, real int64) int64
}

// Mode selects what a fault window does.
type Mode uint8

const (
	// Outage fails every operation in the window with the sticky
	// hcerr.ErrTierOffline.
	Outage Mode = iota
	// Transient fails operations (all, or the Rate-selected fraction of
	// keys) with a retryable error; a retry whose backoff carries it past
	// the window end succeeds.
	Transient
	// LatencySpike adds Extra virtual seconds to every operation.
	LatencySpike
	// CorruptReads returns bit-flipped payload copies for reads of the
	// Rate-selected fraction of keys.
	CorruptReads
	// CapacityLie scales the tier's reported capacity by CapFraction in
	// monitoring snapshots.
	CapacityLie
)

// String names the mode for logs and errors.
func (m Mode) String() string {
	switch m {
	case Outage:
		return "outage"
	case Transient:
		return "transient"
	case LatencySpike:
		return "latency"
	case CorruptReads:
		return "corrupt"
	case CapacityLie:
		return "capacity-lie"
	}
	return "unknown"
}

// Window is one scripted fault: a mode active on one tier for a span of
// the virtual timeline.
type Window struct {
	// Tier is the target tier index.
	Tier int
	// Start and End bound the window in virtual seconds, [Start, End).
	// End <= 0 means the window never closes.
	Start, End float64
	// Mode selects the fault behaviour.
	Mode Mode
	// Rate, for Transient and CorruptReads, selects the affected key
	// fraction in (0, 1]; zero means every key.
	Rate float64
	// Extra is LatencySpike's added virtual seconds per operation.
	Extra float64
	// CapFraction is CapacityLie's reported-capacity multiplier in
	// [0, 1); zero reports an (apparently) full tier.
	CapFraction float64
	// Seed salts the per-key hash so distinct windows select distinct
	// key subsets.
	Seed uint64
}

func (w *Window) active(now float64) bool {
	return now >= w.Start && (w.End <= 0 || now < w.End)
}

// hits reports whether the window's Rate selects this key (always true
// for rate 0 or >= 1). The fraction is a pure hash of (key, seed).
func (w *Window) hits(key string) bool {
	if w.Rate <= 0 || w.Rate >= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(w.Seed >> (8 * i))
	}
	h.Write(b[:])
	return float64(h.Sum64()%1_000_000)/1_000_000 < w.Rate
}

// Schedule is the stateless Injector over a fixed window script.
type Schedule struct {
	Windows []Window
}

var _ Injector = (*Schedule)(nil)

// Decide implements Injector. Windows compose: latency spikes add up,
// and the first error-producing window (in script order) wins.
func (s *Schedule) Decide(now float64, tier int, op Op, key string, _ int64) Decision {
	var d Decision
	for i := range s.Windows {
		w := &s.Windows[i]
		if w.Tier != tier || !w.active(now) {
			continue
		}
		switch w.Mode {
		case Outage:
			if d.Err == nil {
				d.Err = fmt.Errorf("fault: injected outage on tier %d: %w", tier, hcerr.ErrTierOffline)
			}
		case Transient:
			if d.Err == nil && w.hits(key) {
				d.Err = hcerr.MarkTransient(fmt.Errorf("fault: injected transient fault on tier %d key %q", tier, key))
			}
		case LatencySpike:
			d.Latency += w.Extra
		case CorruptReads:
			if op == OpGet && w.hits(key) {
				d.Corrupt = true
			}
		}
	}
	return d
}

// ReportedCapacity implements Injector: the smallest active lie wins.
func (s *Schedule) ReportedCapacity(now float64, tier int, real int64) int64 {
	out := real
	for i := range s.Windows {
		w := &s.Windows[i]
		if w.Tier != tier || w.Mode != CapacityLie || !w.active(now) {
			continue
		}
		lied := int64(float64(real) * w.CapFraction)
		if lied < out {
			out = lied
		}
	}
	return out
}
