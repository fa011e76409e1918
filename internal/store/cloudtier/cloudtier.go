// Package cloudtier models an object-store tier: payloads are held in
// process memory like the default backend (this is a simulation of a
// remote service, not a client for one), but every byte's residency and
// every byte read out is metered in dollars on the virtual clock — the
// cold floor the HCDP cost objective trades against the fast tiers.
//
// Storage cost integrates byte-seconds: each operation carries its
// virtual time, and the meter advances `used × Δt` before the operation
// applies, priced at CostPerGBMonth. Egress counts every byte leaving
// the tier — Peek, Get (which peeks), and MoveOut — priced at
// EgressCostPerGB. The virtual clock only moves forward; operations
// replayed at earlier readings (the manager's deterministic re-reads)
// don't rewind the meter.
package cloudtier

import (
	"sync"

	"hcompress/internal/store/backend"
)

const (
	gb          = float64(1 << 30)
	secPerMonth = 30 * 24 * 3600.0
)

// CostReport is the meter reading at one virtual time.
type CostReport struct {
	StorageDollars float64 // byte-second integral × CostPerGBMonth
	EgressDollars  float64 // bytes read out × EgressCostPerGB
	EgressBytes    int64
	UsedBytes      int64
}

// Total sums the storage and egress charges.
func (c CostReport) Total() float64 { return c.StorageDollars + c.EgressDollars }

// Backend is a modeled cloud object tier.
type Backend struct {
	costPerGBMonth  float64
	egressCostPerGB float64

	mu          sync.Mutex
	m           map[backend.Handle]*backend.Ref
	next        uint64
	used        int64
	held        int64   // Σ cap of the retained payload buffers
	byteSeconds float64 // ∫ used dt on the virtual clock
	egressBytes int64
	lastNow     float64
}

// New creates a cloud backend priced at the given storage and egress
// rates (dollars per GB-month and per GB respectively; zero disables
// that meter).
func New(costPerGBMonth, egressCostPerGB float64) *Backend {
	return &Backend{
		costPerGBMonth:  costPerGBMonth,
		egressCostPerGB: egressCostPerGB,
		m:               make(map[backend.Handle]*backend.Ref),
	}
}

// advance integrates residency up to now. Caller holds b.mu.
func (b *Backend) advance(now float64) {
	if now > b.lastNow {
		b.byteSeconds += float64(b.used) * (now - b.lastNow)
		b.lastNow = now
	}
}

// Cost returns the meter reading with residency integrated up to now.
func (b *Backend) Cost(now float64) CostReport {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advance(now)
	return CostReport{
		StorageDollars: b.byteSeconds / gb / secPerMonth * b.costPerGBMonth,
		EgressDollars:  float64(b.egressBytes) / gb * b.egressCostPerGB,
		EgressBytes:    b.egressBytes,
		UsedBytes:      b.used,
	}
}

// Kind implements backend.TierBackend.
func (b *Backend) Kind() string { return "cloud" }

// Resident implements backend.TierBackend: the model keeps payloads in
// memory, so handed-in references are retained.
func (b *Backend) Resident() bool { return true }

// Open implements backend.TierBackend.
func (b *Backend) Open() error { return nil }

// Recovered implements backend.TierBackend.
func (b *Backend) Recovered() []backend.RecoveredEntry { return nil }

// Put implements backend.TierBackend.
func (b *Backend) Put(now float64, _ string, r *backend.Ref) (backend.Handle, error) {
	b.mu.Lock()
	b.advance(now)
	b.next++
	h := backend.Handle(b.next)
	b.m[h] = r
	b.used += r.Len()
	b.held += int64(cap(r.Data()))
	b.mu.Unlock()
	return h, nil
}

// Peek implements backend.TierBackend; the bytes leaving the tier are
// egress.
func (b *Backend) Peek(now float64, h backend.Handle) (*backend.Ref, error) {
	b.mu.Lock()
	b.advance(now)
	r, ok := b.m[h]
	if ok {
		r.Retain()
		b.egressBytes += r.Len()
	}
	b.mu.Unlock()
	if !ok {
		return nil, backend.ErrUnknownHandle
	}
	return r, nil
}

// MoveOut implements backend.TierBackend; promotion out of the cloud is
// egress too.
func (b *Backend) MoveOut(now float64, h backend.Handle) (*backend.Ref, error) {
	b.mu.Lock()
	b.advance(now)
	r, ok := b.m[h]
	if ok {
		delete(b.m, h)
		b.used -= r.Len()
		b.held -= int64(cap(r.Data()))
		b.egressBytes += r.Len()
	}
	b.mu.Unlock()
	if !ok {
		return nil, backend.ErrUnknownHandle
	}
	return r, nil
}

// Delete implements backend.TierBackend. Deletion time isn't threaded
// through the store, so residency is integrated at the meter's current
// watermark.
func (b *Backend) Delete(h backend.Handle) {
	b.mu.Lock()
	r, ok := b.m[h]
	if ok {
		delete(b.m, h)
		b.used -= r.Len()
		b.held -= int64(cap(r.Data()))
	}
	b.mu.Unlock()
	r.Release()
}

// Used implements backend.TierBackend.
func (b *Backend) Used() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Held implements backend.Holder.
func (b *Backend) Held() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.held
}

// Len implements backend.TierBackend.
func (b *Backend) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.m)
}

// Sync implements backend.TierBackend.
func (b *Backend) Sync() error { return nil }

// Close implements backend.TierBackend.
func (b *Backend) Close() error {
	b.mu.Lock()
	old := b.m
	b.m = make(map[backend.Handle]*backend.Ref)
	b.used, b.held = 0, 0
	b.mu.Unlock()
	for _, r := range old {
		r.Release()
	}
	return nil
}
