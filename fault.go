package hcompress

import (
	"fmt"

	"hcompress/internal/fault"
	"hcompress/internal/tier"
)

// FaultMode selects what a fault window does to its target tier.
type FaultMode int

const (
	// FaultOutage fails every operation in the window with the sticky
	// ErrTierOffline: the device is gone until the window closes.
	FaultOutage FaultMode = iota
	// FaultTransient fails operations (all keys, or the Rate-selected
	// fraction) with a retryable error; a retry whose backoff carries it
	// past the window end succeeds.
	FaultTransient
	// FaultLatency adds ExtraLatencySec virtual seconds to every
	// operation on the tier.
	FaultLatency
	// FaultCorrupt returns bit-flipped payload copies for reads of the
	// Rate-selected fraction of keys; writes are untouched and the stored
	// bytes stay intact (CRC verification catches the flip).
	FaultCorrupt
	// FaultCapacityLie scales the tier's reported capacity by
	// CapacityFraction in System Monitor snapshots — the planner sees a
	// smaller (even full) tier while the device's true capacity is
	// unchanged.
	FaultCapacityLie
)

// FaultWindow scripts one fault: a mode active on one named tier for a
// span of the virtual timeline. Windows are deterministic — the same
// schedule replayed over the same operations produces the same failures
// — which is what makes fault scenarios assertable in tests and CI.
type FaultWindow struct {
	// Tier names the target tier (must match a Config.Tiers name).
	Tier string
	// StartSec and EndSec bound the window in virtual seconds,
	// [StartSec, EndSec). EndSec <= 0 means the window never closes.
	StartSec, EndSec float64
	// Mode selects the fault behaviour.
	Mode FaultMode
	// Rate, for FaultTransient and FaultCorrupt, selects the affected
	// fraction of keys in (0, 1); zero or >= 1 affects every key. Key
	// selection is a pure hash, stable across runs and orderings.
	Rate float64
	// ExtraLatencySec is FaultLatency's added virtual seconds per
	// operation.
	ExtraLatencySec float64
	// CapacityFraction is FaultCapacityLie's reported-capacity
	// multiplier in [0, 1); zero reports an (apparently) full tier.
	CapacityFraction float64
	// Seed salts per-key selection so distinct windows pick distinct
	// key subsets.
	Seed uint64
}

// FaultInjector is the public fault-injection knob: a script of windows
// applied to the store's operations. Attach one via Config.FaultInjector.
type FaultInjector struct {
	Windows []FaultWindow
}

// schedule compiles the public script into the store-level injector,
// resolving tier names against the hierarchy.
func (f *FaultInjector) schedule(h tier.Hierarchy) (*fault.Schedule, error) {
	idx := make(map[string]int, h.Len())
	for i, spec := range h.Tiers {
		idx[spec.Name] = i
	}
	s := &fault.Schedule{Windows: make([]fault.Window, 0, len(f.Windows))}
	for i, w := range f.Windows {
		ti, ok := idx[w.Tier]
		if !ok {
			return nil, fmt.Errorf("hcompress: fault window %d: unknown tier %q", i, w.Tier)
		}
		var mode fault.Mode
		switch w.Mode {
		case FaultOutage:
			mode = fault.Outage
		case FaultTransient:
			mode = fault.Transient
		case FaultLatency:
			mode = fault.LatencySpike
		case FaultCorrupt:
			mode = fault.CorruptReads
		case FaultCapacityLie:
			mode = fault.CapacityLie
		default:
			return nil, fmt.Errorf("hcompress: fault window %d: unknown mode %d", i, w.Mode)
		}
		if w.Rate < 0 || w.CapacityFraction < 0 || w.CapacityFraction >= 1 && w.Mode == FaultCapacityLie {
			return nil, fmt.Errorf("hcompress: fault window %d: rate/fraction out of range", i)
		}
		s.Windows = append(s.Windows, fault.Window{
			Tier: ti, Start: w.StartSec, End: w.EndSec, Mode: mode,
			Rate: w.Rate, Extra: w.ExtraLatencySec, CapFraction: w.CapacityFraction,
			Seed: w.Seed,
		})
	}
	return s, nil
}
