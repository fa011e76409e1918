// Package store implements the Storage Hardware Interface (SHI): a
// multi-tier object store with a virtual-time performance model. It is the
// substrate both baselines (Hermes-style buffering) and HCompress write
// through.
//
// The store is split into a backend-agnostic control plane — the blob
// directory, per-tier capacity ledgers and virtual timelines, fault
// injection, and health observation — and one payload plane per tier
// behind the backend.TierBackend interface. The default backend keeps
// payloads in process memory (byte-identical to the pre-backend store);
// a tier.Spec with Backend "file" stores payloads in append-only segment
// files with a write-ahead journal (internal/store/durable) and survives
// a crash, and Backend "cloud" models an object store with per-GB-month
// and egress pricing on the virtual clock (internal/store/cloudtier).
//
// The store can run in two modes. With data retention on, blob payloads
// are held by the tier backends and reads return the exact bytes written —
// the mode used by the public API, the examples, and correctness tests.
// With retention off, only sizes and placement are tracked, letting the
// experiment harness replay the paper's multi-hundred-gigabyte workloads
// on a laptop while keeping the timing model identical.
//
// Locking is fine-grained: the blob directory is guarded by one RWMutex,
// and every tier guards its own capacity accounting and virtual timeline
// with its own mutex, so traffic against different tiers never serializes.
// Lock order is always directory before tier, and tiers in ascending
// index, so composite operations (Put with overwrite, Move) cannot
// deadlock. Backend locks are leaf locks: a backend is only ever called
// with at most the directory lock held, and never calls back into the
// store.
package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"hcompress/internal/bufpool"
	"hcompress/internal/des"
	"hcompress/internal/fault"
	"hcompress/internal/hcerr"
	"hcompress/internal/store/backend"
	"hcompress/internal/store/cloudtier"
	"hcompress/internal/store/durable"
	"hcompress/internal/telemetry"
	"hcompress/internal/tier"
)

// ErrNoCapacity is returned when a Put does not fit in the target tier.
// It is the canonical hcerr sentinel, so errors.Is matches across layers.
var ErrNoCapacity = hcerr.ErrNoCapacity

// errNotFound is returned when a key is absent.
var errNotFound = hcerr.ErrNotFound

// Blob is one stored object.
type Blob struct {
	Key  string
	Tier int
	Size int64  // bytes occupied on the tier (compressed size)
	Data []byte // nil when data retention is off

	// ref pins the payload returned by Peek; nil for Get/Stat results.
	// handle addresses the payload inside its tier's backend while the
	// blob is resident (has is true).
	ref    *backend.Ref
	handle backend.Handle
	has    bool
}

// Release returns a Peek'd blob's pin on its payload. For arena-owned
// payloads this is what lets the buffer return to the arena; for copied
// payloads it is effectively free. It is a no-op for the zero Blob, so
// callers can Release unconditionally. After Release the blob's Data
// must not be touched again.
func (s *Store) Release(b Blob) { b.ref.Release() }

// tierState is one tier's capacity ledger and virtual timeline, guarded by
// its own lock so tiers never contend with each other.
type tierState struct {
	mu   sync.Mutex
	spec tier.Spec
	res  *des.Resource
	used int64
	tm   tierMetrics // nil instruments when telemetry is off
}

// tierMetrics are one tier's per-tier instruments. All fields are nil
// when telemetry is off; instrument methods no-op on nil, so the hot
// paths stay branch-cheap without any conditional wiring.
type tierMetrics struct {
	puts      *telemetry.Counter
	putBytes  *telemetry.Counter
	gets      *telemetry.Counter
	getBytes  *telemetry.Counter
	deletes   *telemetry.Counter
	evictions *telemetry.Counter
	usedGauge *telemetry.Gauge
	putSecs   *telemetry.Histogram // modeled (virtual) seconds per put
	getSecs   *telemetry.Histogram // modeled (virtual) seconds per read
}

// Store is a multi-tier object store. All methods are safe for concurrent
// use. The blob directory and each tier are locked independently;
// cross-tier snapshots (Status) are per-tier consistent but not globally
// atomic, mirroring how a real System Monitor samples devices one by one.
type Store struct {
	mu       sync.RWMutex // guards blobs and the fields of stored *Blob values
	tiers    []*tierState // slice immutable after Open; elements self-locked
	be       []backend.TierBackend
	blobs    map[string]*Blob
	keepData bool
	hier     tier.Hierarchy

	// flt, when non-nil, rules on every tier operation (fault injection).
	// healthSink, when non-nil, observes per-tier outcomes — injected
	// failures, real backend I/O errors, and ordinary successes — so the
	// System Monitor can track tier health. Both are construction-time
	// options; neither is ever called while a tier lock is held (the
	// monitor's refresh path takes its own lock before sampling tiers, so
	// the opposite order would deadlock).
	flt        fault.Injector
	healthSink func(now float64, tier int, err error)

	// recovered lists the keys re-admitted from durable backends at Open,
	// sorted. Snapshot for the assembly phase; never mutated afterwards.
	recovered []string

	// gen counts changes to what Status reports — tier occupancy and
	// device queues. It moves inside the changed tier's lock, so a
	// Status sampled after reading gen sees every change gen counts.
	gen atomic.Uint64

	closeOnce sync.Once
	closeErr  error
}

// Options are the store's construction-time settings, accepted by Open.
// The zero value is a retention-off store with in-memory backends and no
// fault injection, health observation, or telemetry.
type Options struct {
	// KeepData selects whether blob payloads are retained (true) or only
	// modeled (false).
	KeepData bool
	// DataDir roots file-backed tiers: a tier whose spec names Backend
	// "file" journals its payloads under DataDir/<tier-name>. Required
	// when any tier is file-backed.
	DataDir string
	// FaultInjector, when non-nil, rules on every tier operation.
	FaultInjector fault.Injector
	// HealthSink, when non-nil, observes per-tier outcomes: a nil error
	// on success, the failure otherwise. Never invoked under a store
	// lock on the put/read paths.
	HealthSink func(now float64, tier int, err error)
	// Telemetry, when non-nil, registers per-tier instruments.
	Telemetry *telemetry.Registry
	// backends, when non-nil, supplies one pre-built backend per tier and
	// overrides selection from the tier specs (tests use it to run the
	// store over a backend of their choosing). Must match the hierarchy's
	// tier count; the store Opens and Closes them.
	backends []backend.TierBackend
}

// Open creates a store over the hierarchy, building one payload backend
// per tier from its spec (Backend "" or "mem" → in-memory, "file" →
// durable journal under DataDir, "cloud" → modeled object store) unless
// opts.backends overrides them. File-backed tiers replay their journals
// here: whatever payloads survive recovery re-enter the blob directory
// and re-charge their tier's capacity ledger before the first operation.
func Open(h tier.Hierarchy, opts Options) (*Store, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	s := &Store{
		blobs:      make(map[string]*Blob),
		keepData:   opts.KeepData,
		hier:       h,
		flt:        opts.FaultInjector,
		healthSink: opts.HealthSink,
	}
	if opts.backends != nil && len(opts.backends) != len(h.Tiers) {
		return nil, fmt.Errorf("store: %d backends for %d tiers", len(opts.backends), len(h.Tiers))
	}
	for i, spec := range h.Tiers {
		s.tiers = append(s.tiers, &tierState{
			spec: spec,
			res:  des.NewResource(spec.Name, spec.Lanes, spec.Latency, spec.Bandwidth),
		})
		if opts.backends != nil {
			s.be = append(s.be, opts.backends[i])
			continue
		}
		switch spec.Backend {
		case "", tier.BackendMem:
			s.be = append(s.be, backend.NewMem())
		case tier.BackendFile:
			if opts.DataDir == "" {
				return nil, fmt.Errorf("store: tier %s has a file backend but no DataDir was configured", spec.Name)
			}
			s.be = append(s.be, durable.New(filepath.Join(opts.DataDir, spec.Name), durable.Options{}))
		case tier.BackendCloud:
			s.be = append(s.be, cloudtier.New(spec.CostPerGBMonth, spec.EgressCostPerGB))
		default:
			return nil, fmt.Errorf("store: tier %s: unknown backend %q", spec.Name, spec.Backend)
		}
	}
	for i, be := range s.be {
		if err := be.Open(); err != nil {
			for _, prev := range s.be[:i] {
				prev.Close()
			}
			return nil, fmt.Errorf("store: open %s backend for tier %s: %w",
				be.Kind(), h.Tiers[i].Name, err)
		}
	}
	// Re-admit everything a durable backend recovered. If the same key
	// survived on two tiers (a crash between a Move's journal records),
	// the faster tier wins and the stale copy is dropped.
	for t, be := range s.be {
		for _, re := range be.Recovered() {
			if _, dup := s.blobs[re.Key]; dup {
				be.Delete(re.Handle)
				continue
			}
			s.blobs[re.Key] = &Blob{Key: re.Key, Tier: t, Size: re.Size, handle: re.Handle, has: true}
			s.tiers[t].used += re.Size
			s.recovered = append(s.recovered, re.Key)
		}
	}
	sort.Strings(s.recovered)
	s.registerMetrics(opts.Telemetry)
	return s, nil
}

// Recovered returns the keys of every payload re-admitted from durable
// backends when the store was opened, sorted. It is a snapshot taken at
// Open; callers consume it during assembly, before the store is shared
// between goroutines.
func (s *Store) Recovered() []string { return s.recovered }

// observe reports one tier outcome to the health sink. Capacity misses
// are not faults — a full tier is healthy — so they are not reported.
func (s *Store) observe(now float64, tier int, err error) {
	if s.healthSink != nil {
		s.healthSink(now, tier, err)
	}
}

// decide consults the fault injector for one operation; the zero
// Decision means "proceed untouched".
func (s *Store) decide(now float64, tier int, op fault.Op, key string, size int64) fault.Decision {
	if s.flt == nil {
		return fault.Decision{}
	}
	return s.flt.Decide(now, tier, op, key, size)
}

// registerMetrics registers per-tier instruments (put/get ops and bytes,
// deletes, evictions, used/capacity gauges) on reg. A nil registry
// leaves telemetry off.
func (s *Store) registerMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	for _, ts := range s.tiers {
		l := telemetry.L("tier", ts.spec.Name)
		ts.tm = tierMetrics{
			puts:      reg.Counter("hc_tier_put_ops_total", "sub-task writes placed per tier", l),
			putBytes:  reg.Counter("hc_tier_put_bytes_total", "stored bytes written per tier", l),
			gets:      reg.Counter("hc_tier_get_ops_total", "sub-task reads served per tier", l),
			getBytes:  reg.Counter("hc_tier_get_bytes_total", "stored bytes read per tier", l),
			deletes:   reg.Counter("hc_tier_delete_ops_total", "blobs deleted per tier", l),
			evictions: reg.Counter("hc_tier_evictions_total", "blobs moved off this tier (drain/spill)", l),
			usedGauge: reg.Gauge("hc_tier_used_bytes", "bytes currently allocated per tier", l),
			putSecs: reg.Histogram("hc_tier_io_seconds", "modeled seconds per tier I/O (queueing included)",
				telemetry.SecondsBuckets, l, telemetry.L("op", "put")),
			getSecs: reg.Histogram("hc_tier_io_seconds", "modeled seconds per tier I/O (queueing included)",
				telemetry.SecondsBuckets, l, telemetry.L("op", "get")),
		}
		reg.Gauge("hc_tier_capacity_bytes", "configured capacity per tier", l).
			Set(float64(ts.spec.Capacity))
		ts.tm.usedGauge.Set(float64(ts.used))
	}
}

// Hierarchy returns the hierarchy this store was built from.
func (s *Store) Hierarchy() tier.Hierarchy { return s.hier }

// KeepsData reports whether payloads are retained.
func (s *Store) KeepsData() bool { return s.keepData }

// release returns size bytes of capacity to tier t.
func (s *Store) release(t int, size int64) {
	ts := s.tiers[t]
	ts.mu.Lock()
	ts.used -= size
	s.gen.Add(1)
	ts.tm.usedGauge.Set(float64(ts.used))
	ts.mu.Unlock()
}

// dropPayload removes b's payload from its tier backend. Directory
// bookkeeping is the caller's job; b must already be unreachable (popped
// from the directory or owned by a rolled-back path).
func (s *Store) dropPayload(b *Blob) {
	if b.has {
		s.be[b.Tier].Delete(b.handle)
		b.has = false
	}
}

// restoreOld re-admits a displaced blob after a failed overwrite: its
// capacity is re-charged and it re-enters the directory — unless a
// concurrent same-key Put won the slot in the meantime, in which case
// the old blob is gone for good.
func (s *Store) restoreOld(old *Blob) {
	ot := s.tiers[old.Tier]
	ot.mu.Lock()
	ot.used += old.Size
	s.gen.Add(1)
	ot.tm.usedGauge.Set(float64(ot.used))
	ot.mu.Unlock()
	s.mu.Lock()
	_, raced := s.blobs[old.Key] // a concurrent same-key Put won; keep its blob
	if !raced {
		s.blobs[old.Key] = old
	}
	s.mu.Unlock()
	if raced {
		s.release(old.Tier, old.Size)
		s.dropPayload(old)
	}
}

// Put stores size bytes under key on tier t, beginning at virtual time
// now, and returns the completion time. data may be nil when retention is
// off (or to model a write without materializing it). The store copies
// data; the caller keeps ownership of its buffer.
func (s *Store) Put(now float64, t int, key string, data []byte, size int64) (end float64, err error) {
	return s.put(now, t, key, data, size, false)
}

// PutOwned is Put for arena-owned payloads: on success the store takes
// ownership of data — storing it without Put's defensive copy and
// recycling it into the buffer arena once the blob is deleted,
// overwritten, or the store is reset (and no Peek pin remains; a durable
// backend recycles it as soon as the bytes are journaled). On error,
// ownership stays with the caller so spill/retry paths can reuse the
// same buffer. data must come from the bufpool arena and must not be
// touched by the caller after a successful PutOwned.
func (s *Store) PutOwned(now float64, t int, key string, data []byte, size int64) (end float64, err error) {
	return s.put(now, t, key, data, size, true)
}

func (s *Store) put(now float64, t int, key string, data []byte, size int64, owned bool) (end float64, err error) {
	if size < 0 {
		return now, fmt.Errorf("store: negative size for %q", key)
	}
	if t < 0 || t >= len(s.tiers) {
		return now, fmt.Errorf("store: tier %d out of range", t)
	}
	ts := s.tiers[t]

	// Fault injection rules before any state changes, so a failed put has
	// no side effects to roll back and the caller keeps payload ownership.
	if d := s.decide(now, t, fault.OpPut, key, size); d.Err != nil {
		s.observe(now, t, d.Err)
		return now, fmt.Errorf("store: put %q on %s: %w", key, ts.spec.Name, d.Err)
	} else if d.Latency > 0 {
		now += d.Latency
	}

	// Pop any existing blob so its allocation can be released first (the
	// overwrite path); it is restored if the new payload does not fit.
	s.mu.Lock()
	old, hadOld := s.blobs[key]
	if hadOld {
		delete(s.blobs, key)
	}
	s.mu.Unlock()
	if hadOld {
		s.release(old.Tier, old.Size)
	}

	ts.mu.Lock()
	if ts.used+size > ts.spec.Capacity {
		used, cap := ts.used, ts.spec.Capacity
		ts.mu.Unlock()
		if hadOld { // roll back: restore the old blob and its allocation
			s.restoreOld(old)
		}
		return now, fmt.Errorf("%w: %s (%d used, %d cap, %d requested)",
			ErrNoCapacity, ts.spec.Name, used, cap, size)
	}
	ts.used += size
	end = ts.res.Acquire(now, size)
	s.gen.Add(1)
	ts.tm.puts.Inc()
	ts.tm.putBytes.Add(size)
	ts.tm.putSecs.Observe(end - now)
	ts.tm.usedGauge.Set(float64(ts.used))
	ts.mu.Unlock()

	b := &Blob{Key: key, Tier: t, Size: size}
	if s.keepData && data != nil {
		var r *backend.Ref
		switch {
		case owned:
			r = backend.NewRef(data, bufpool.Put)
		case s.be[t].Resident():
			// A resident backend retains the reference, so the caller's
			// buffer is copied out defensively (Put's contract).
			r = backend.NewRef(append([]byte(nil), data...), nil)
		default:
			// A durable backend persists the bytes before Put returns
			// and retains nothing, so the caller's buffer is safe to
			// hand over uncopied.
			r = backend.NewRef(data, nil)
		}
		h, perr := s.be[t].Put(end, key, r)
		if perr != nil {
			// The backend stored nothing and the reference (hence an
			// owned payload's ownership) stays with the caller. Roll
			// back as the capacity-miss path does, and feed the I/O
			// error to the health machine like any other tier failure.
			s.release(t, size)
			if hadOld {
				s.restoreOld(old)
			}
			perr = errors.Join(hcerr.ErrBackendIO, perr)
			s.observe(end, t, perr)
			return now, fmt.Errorf("store: put %q on %s: %w", key, ts.spec.Name, perr)
		}
		b.handle, b.has = h, true
	} else if owned && data != nil {
		// Retention off: the payload is consumed here, so the arena
		// buffer can go straight back.
		bufpool.Put(data)
	}
	s.mu.Lock()
	prev, raced := s.blobs[key] // a concurrent same-key Put got here first
	s.blobs[key] = b
	s.mu.Unlock()
	if raced {
		s.release(prev.Tier, prev.Size)
		s.dropPayload(prev)
	}
	// The displaced blob (overwrite path) is gone for good once the new
	// payload is in place.
	if hadOld {
		s.dropPayload(old)
	}
	s.observe(end, t, nil)
	return end, nil
}

// Get reads the blob under key starting at virtual time now. The returned
// data is nil when retention is off. Get callers do not participate in
// refcounting: arena-owned payloads are copied out defensively (the
// original may be recycled by a Delete at any moment), GC-managed
// payloads share the stored bytes.
func (s *Store) Get(now float64, key string) (b Blob, end float64, err error) {
	s.mu.RLock()
	blob, ok := s.blobs[key]
	var ref *backend.Ref
	var perr error
	if ok {
		b = *blob
		if b.has {
			ref, perr = s.be[b.Tier].Peek(now, b.handle)
		}
	}
	s.mu.RUnlock()
	if !ok {
		return Blob{}, now, fmt.Errorf("%w: %q", errNotFound, key)
	}
	if perr != nil {
		perr = errors.Join(hcerr.ErrBackendIO, perr)
		s.observe(now, b.Tier, perr)
		return Blob{}, now, fmt.Errorf("store: get %q on %s: %w", key, s.tiers[b.Tier].spec.Name, perr)
	}
	if ref != nil {
		if ref.Recyclable() {
			b.Data = append([]byte(nil), ref.Data()...)
		} else {
			b.Data = ref.Data()
		}
		ref.Release()
	}
	b.ref = nil
	d := s.decide(now, b.Tier, fault.OpGet, key, b.Size)
	if d.Err != nil {
		s.observe(now, b.Tier, d.Err)
		return Blob{}, now, fmt.Errorf("store: get %q on %s: %w", key, s.tiers[b.Tier].spec.Name, d.Err)
	}
	now += d.Latency
	if d.Corrupt {
		b.corrupt()
	}
	ts := s.tiers[b.Tier]
	ts.mu.Lock()
	end = ts.res.Acquire(now, b.Size)
	s.gen.Add(1)
	ts.tm.gets.Inc()
	ts.tm.getBytes.Add(b.Size)
	ts.tm.getSecs.Observe(end - now)
	ts.mu.Unlock()
	s.observe(end, b.Tier, nil)
	return b, end, nil
}

// corrupt replaces the blob's payload with a bit-flipped private copy —
// the stored bytes stay intact (the fault is what the reader observed,
// not permanent media loss) and any payload pin is dropped since the
// copy is ordinary garbage-collected memory.
func (b *Blob) corrupt() {
	if len(b.Data) == 0 {
		return
	}
	data := append([]byte(nil), b.Data...)
	data[len(data)-1] ^= 0xA5
	if b.ref != nil {
		b.ref.Release()
		b.ref = nil
	}
	b.Data = data
}

// Peek returns the blob under key without modeling an I/O or advancing any
// tier timeline. The returned Data (if any) is pinned for the caller and
// must not be mutated; the caller must pass the returned Blob to Release
// when done with Data, or an arena-backed buffer can never return to the
// arena. It exists so the Compression Manager can fetch payloads for
// parallel decompression and replay the timed reads afterwards, keeping
// virtual-time accounting deterministic. now does not advance anything;
// it only positions the fetch on the virtual timeline for the fault
// injector (the paired timed read replays at the same reading, so both
// see the same fault window) and for cost-metering backends.
func (s *Store) Peek(now float64, key string) (Blob, error) {
	s.mu.RLock()
	blob, ok := s.blobs[key]
	var b Blob
	var perr error
	if ok {
		b = *blob
		b.ref = nil
		if b.has {
			b.ref, perr = s.be[b.Tier].Peek(now, b.handle)
			if perr == nil {
				b.Data = b.ref.Data()
			}
		}
	}
	s.mu.RUnlock()
	if !ok {
		return Blob{}, fmt.Errorf("%w: %q", errNotFound, key)
	}
	if perr != nil {
		perr = errors.Join(hcerr.ErrBackendIO, perr)
		s.observe(now, b.Tier, perr)
		return Blob{}, fmt.Errorf("store: read %q on %s: %w", key, s.tiers[b.Tier].spec.Name, perr)
	}
	d := s.decide(now, b.Tier, fault.OpGet, key, b.Size)
	if d.Err != nil {
		b.ref.Release()
		s.observe(now, b.Tier, d.Err)
		return Blob{}, fmt.Errorf("store: read %q on %s: %w", key, s.tiers[b.Tier].spec.Name, d.Err)
	}
	if d.Corrupt {
		b.corrupt()
	}
	return b, nil
}

// ReadTime models the timed read of key's blob at virtual time now without
// touching its payload, returning the completion time.
func (s *Store) ReadTime(now float64, key string) (end float64, err error) {
	s.mu.RLock()
	blob, ok := s.blobs[key]
	var t int
	var size int64
	if ok {
		t, size = blob.Tier, blob.Size
	}
	s.mu.RUnlock()
	if !ok {
		return now, fmt.Errorf("%w: %q", errNotFound, key)
	}
	if d := s.decide(now, t, fault.OpGet, key, size); d.Err != nil {
		s.observe(now, t, d.Err)
		return now, fmt.Errorf("store: read %q on %s: %w", key, s.tiers[t].spec.Name, d.Err)
	} else if d.Latency > 0 {
		now += d.Latency
	}
	ts := s.tiers[t]
	ts.mu.Lock()
	end = ts.res.Acquire(now, size)
	s.gen.Add(1)
	ts.tm.gets.Inc()
	ts.tm.getBytes.Add(size)
	ts.tm.getSecs.Observe(end - now)
	ts.mu.Unlock()
	s.observe(end, t, nil)
	return end, nil
}

// Delete removes a blob and releases its capacity.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	blob, ok := s.blobs[key]
	if ok {
		delete(s.blobs, key)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", errNotFound, key)
	}
	s.tiers[blob.Tier].tm.deletes.Inc()
	s.release(blob.Tier, blob.Size)
	s.dropPayload(blob)
	return nil
}

// Move relocates a blob to another tier at virtual time now (used by
// eviction/spill paths), modeling a read on the source and a write on the
// destination. It fails without capacity side effects if the destination
// is full. The directory lock is held throughout so readers never observe
// a blob mid-move; when source and destination use different backends the
// payload reference is handed from one to the other (MoveOut → Put)
// under that lock.
func (s *Store) Move(now float64, key string, dst int) (end float64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	blob, ok := s.blobs[key]
	if !ok {
		return now, fmt.Errorf("%w: %q", errNotFound, key)
	}
	if dst < 0 || dst >= len(s.tiers) {
		return now, fmt.Errorf("store: tier %d out of range", dst)
	}
	if blob.Tier == dst {
		return now, nil
	}
	// Fault ruling on the destination write happens before any tier lock
	// is taken (the health sink must never run under one — the monitor's
	// refresh path locks tiers in the opposite order).
	if d := s.decide(now, dst, fault.OpPut, key, blob.Size); d.Err != nil {
		s.observe(now, dst, d.Err)
		return now, fmt.Errorf("store: move %q to %s: %w", key, s.tiers[dst].spec.Name, d.Err)
	} else if d.Latency > 0 {
		now += d.Latency
	}
	srcIdx := blob.Tier
	src, dstT := s.tiers[srcIdx], s.tiers[dst]
	lo, hi := src, dstT
	if dst < srcIdx {
		lo, hi = dstT, src
	}
	lo.mu.Lock()
	hi.mu.Lock()
	if dstT.used+blob.Size > dstT.spec.Capacity {
		hi.mu.Unlock()
		lo.mu.Unlock()
		return now, fmt.Errorf("%w: %s", ErrNoCapacity, dstT.spec.Name)
	}
	readEnd := src.res.Acquire(now, blob.Size)
	end = dstT.res.Acquire(readEnd, blob.Size)
	src.used -= blob.Size
	dstT.used += blob.Size
	s.gen.Add(1)
	src.tm.evictions.Inc()
	src.tm.usedGauge.Set(float64(src.used))
	dstT.tm.puts.Inc()
	dstT.tm.putBytes.Add(blob.Size)
	dstT.tm.usedGauge.Set(float64(dstT.used))
	hi.mu.Unlock()
	lo.mu.Unlock()
	// Payload handoff outside the tier locks but still under the
	// directory lock, so no reader sees the blob between backends.
	if blob.has && s.be[srcIdx] != s.be[dst] {
		ref, merr := s.be[srcIdx].MoveOut(readEnd, blob.handle)
		var perr error
		var h backend.Handle
		if merr == nil {
			h, perr = s.be[dst].Put(end, key, ref)
			if perr != nil {
				// Re-admit the payload where it was; an in-memory or
				// cloud re-Put cannot fail, and a durable source that
				// also fails loses the payload (surfaced to the caller).
				if h2, rerr := s.be[srcIdx].Put(readEnd, key, ref); rerr == nil {
					blob.handle = h2
				} else {
					ref.Release()
					blob.has = false
				}
			}
		} else if errors.Is(merr, backend.ErrUnknownHandle) {
			blob.has = false
		} else {
			perr = merr
		}
		if perr != nil {
			// Undo the capacity transfer; the modeled device time stays
			// spent, like any failed I/O.
			s.release(dst, blob.Size)
			srcAdj := s.tiers[srcIdx]
			srcAdj.mu.Lock()
			srcAdj.used += blob.Size
			s.gen.Add(1)
			srcAdj.tm.usedGauge.Set(float64(srcAdj.used))
			srcAdj.mu.Unlock()
			perr = errors.Join(hcerr.ErrBackendIO, perr)
			s.observe(end, dst, perr)
			return now, fmt.Errorf("store: move %q to %s: %w", key, dstT.spec.Name, perr)
		}
		if merr == nil {
			blob.handle = h
		}
	}
	blob.Tier = dst
	return end, nil
}

// TierStatus is the System Monitor's view of one tier.
type TierStatus struct {
	Name      string
	Backend   string // payload backend kind: "mem", "file", "cloud"
	Available bool
	Capacity  int64
	Used      int64
	Remaining int64
	QueueLen  int     // lanes busy at the query time
	Backlog   float64 // seconds of committed work beyond the query time
}

// Status snapshots every tier at virtual time now. Each tier is sampled
// under its own lock; the snapshot is per-tier consistent but tiers are
// not frozen relative to each other (the System Monitor's view is
// explicitly allowed to be slightly stale).
func (s *Store) Status(now float64) []TierStatus {
	out := make([]TierStatus, len(s.tiers))
	for i, ts := range s.tiers {
		// A capacity lie shrinks what the monitor *reports*, not what the
		// tier holds — the false telemetry a real System Monitor can
		// serve. Placement re-checks true capacity, so lies only mislead
		// planners.
		capEff := ts.spec.Capacity
		if s.flt != nil {
			capEff = s.flt.ReportedCapacity(now, i, capEff)
		}
		ts.mu.Lock()
		rem := capEff - ts.used
		if rem < 0 {
			rem = 0
		}
		out[i] = TierStatus{
			Name:      ts.spec.Name,
			Backend:   s.be[i].Kind(),
			Available: true,
			Capacity:  ts.spec.Capacity,
			Used:      ts.used,
			Remaining: rem,
			QueueLen:  ts.res.QueueDepth(now),
			Backlog:   ts.res.Backlog(now),
		}
		ts.mu.Unlock()
	}
	return out
}

// Gen reports the store's change count. Two Status samples at one
// virtual time with no change of Gen between them are identical.
func (s *Store) Gen() uint64 { return s.gen.Load() }

// Used reports the bytes currently allocated on tier t.
func (s *Store) Used(t int) int64 {
	if t < 0 || t >= len(s.tiers) {
		return 0
	}
	ts := s.tiers[t]
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.used
}

// Reset clears all blobs and virtual-time state, keeping the hierarchy
// and the backends open. Arena-owned payloads are recycled (modulo
// outstanding Peek pins); durable backends journal the deletions.
func (s *Store) Reset() {
	s.mu.Lock()
	old := s.blobs
	s.blobs = make(map[string]*Blob)
	s.mu.Unlock()
	for _, b := range old {
		s.dropPayload(b)
	}
	for _, ts := range s.tiers {
		ts.mu.Lock()
		ts.used = 0
		ts.res.Reset()
		s.gen.Add(1)
		ts.tm.usedGauge.Set(0)
		ts.mu.Unlock()
	}
}

// Close shuts down every tier backend: in-memory backends release their
// payload references back to the arena, durable backends sync and close
// their files (the payloads stay on media and are recovered by the next
// Open). The store must not be used afterwards. Idempotent.
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.blobs = make(map[string]*Blob)
		s.mu.Unlock()
		for _, be := range s.be {
			if err := be.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

// Len reports the number of stored blobs.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blobs)
}
