// Package backend defines the TierBackend interface: the contract one
// storage tier's payload plane implements behind the SHI store. The
// store keeps everything backend-agnostic — the blob directory, capacity
// ledger, virtual-time model, fault injection, and health observation —
// while a TierBackend owns the payload bytes themselves: where they
// live (process memory, append-only files with a write-ahead journal, a
// modeled cloud object store) and how they survive a crash.
//
// Payloads are addressed by Handle, not by key: every Put mints a fresh
// handle, so concurrent same-key writes, overwrites, and moves each own
// their payload outright and the directory's race resolution (last
// insert wins) never has to reason about whose bytes a key names inside
// a backend. Keys are still recorded with each payload — they are the
// recovery identity a durable backend reports after a crash replay.
//
// Ownership flows through Ref, a refcounted buffer handle that knows
// how to return arena-backed buffers to the bufpool when the last
// reference drops. A backend that keeps payloads resident (memory,
// cloud model) holds one reference per stored payload and hands out
// retained views on Peek; a durable backend persists the bytes, releases
// the caller's reference immediately, and materializes fresh arena
// buffers on Peek.
package backend

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrUnknownHandle is returned by Peek for a handle the backend does not
// hold (never issued, deleted, or moved out).
var ErrUnknownHandle = errors.New("backend: unknown payload handle")

// Handle names one stored payload inside a backend. Handles are minted
// by Put, are never reused within a backend's lifetime, and are only
// meaningful to the backend that issued them. The zero Handle is never
// issued.
type Handle uint64

// Ref is a refcounted payload buffer. Data must be treated as read-only
// by every holder. When the count reaches zero the optional free func
// reclaims the buffer (bufpool.Put for arena buffers); a nil free means
// the buffer is ordinary garbage-collected memory.
type Ref struct {
	refs atomic.Int32
	data []byte
	free func([]byte)
}

// NewRef wraps data in a Ref with one outstanding reference. free, when
// non-nil, reclaims the buffer once the last reference is released.
func NewRef(data []byte, free func([]byte)) *Ref {
	r := &Ref{data: data, free: free}
	r.refs.Store(1)
	return r
}

// Data returns the payload bytes. Valid only while the caller holds a
// reference.
func (r *Ref) Data() []byte {
	if r == nil {
		return nil
	}
	return r.data
}

// Len reports the payload length without touching the reference count.
func (r *Ref) Len() int64 {
	if r == nil {
		return 0
	}
	return int64(len(r.data))
}

// Retain adds a reference. Safe on nil.
func (r *Ref) Retain() {
	if r != nil {
		r.refs.Add(1)
	}
}

// Release drops one reference, reclaiming the buffer when the count
// reaches zero. Safe on nil; the data must not be touched afterwards.
func (r *Ref) Release() {
	if r != nil && r.refs.Add(-1) == 0 && r.free != nil {
		r.free(r.data)
	}
}

// Recyclable reports whether the buffer returns to an arena when the
// last reference drops — the store copies such payloads out of Get
// results (a later recycle would invalidate the caller's slice), while
// plain GC-managed buffers are shared, exactly as the pre-backend store
// behaved.
func (r *Ref) Recyclable() bool { return r != nil && r.free != nil }

// RecoveredEntry is one payload a durable backend replayed on Open: the
// write-time key, the fresh handle it is reachable under, and its size.
// Backends without persistence recover nothing.
type RecoveredEntry struct {
	Key    string
	Handle Handle
	Size   int64
}

// TierBackend is one tier's payload plane. Implementations must be safe
// for concurrent use; the store may call any method from any operation
// goroutine (reads under its directory read-lock, so backend locks are
// leaf locks — a backend must never call back into the store).
type TierBackend interface {
	// Kind names the implementation ("mem", "file", "cloud") for status
	// surfaces and benchmarks.
	Kind() string

	// Resident reports whether the backend retains the Ref it is handed
	// (payloads stay in process memory). The store must hand a resident
	// backend a private copy of caller-owned bytes; a non-resident
	// backend persists the bytes during Put and releases the reference,
	// so no copy is needed.
	Resident() bool

	// Open prepares the backend for use. A durable backend replays its
	// journal here — truncating torn tails, verifying every payload
	// checksum — after which Recovered reports what survived. Open is
	// called exactly once, before the backend is shared.
	Open() error

	// Recovered lists the payloads Open replayed from stable media,
	// deduplicated by key (the latest record wins). Nil for volatile
	// backends.
	Recovered() []RecoveredEntry

	// Put stores r's payload under a fresh handle. On success the
	// caller's reference transfers to the backend (a durable backend
	// releases it once the bytes are journaled); on error it stays with
	// the caller. now is the virtual time of the write, consumed by
	// cost-metering backends.
	Put(now float64, key string, r *Ref) (Handle, error)

	// Peek returns a retained reference to the payload; the caller must
	// Release it. now positions the read on the virtual timeline for
	// cost metering.
	Peek(now float64, h Handle) (*Ref, error)

	// MoveOut atomically removes the payload, transferring a reference
	// to the caller — the handoff half of a cross-tier Move (the caller
	// re-Puts the ref into the destination backend, or Releases it on
	// failure). ErrUnknownHandle reports an absent payload; any other
	// error is an I/O failure that leaves the payload in place.
	MoveOut(now float64, h Handle) (*Ref, error)

	// Delete drops the payload. Unknown handles are a no-op, so racing
	// cleanups are always safe.
	Delete(h Handle)

	// Used reports the payload bytes currently stored.
	Used() int64

	// Len reports the number of stored payloads.
	Len() int

	// Sync flushes buffered writes to stable media (no-op for volatile
	// backends).
	Sync() error

	// Close releases every resource: resident backends release their
	// payload references (returning arena buffers), durable backends
	// sync and close their files, keeping the bytes on media.
	Close() error
}

// Holder is implemented by a backend that keeps payloads in process
// memory and reports how much: Held is the summed capacity of the payload
// buffers it retains, size-class rounding included.
type Holder interface {
	Held() int64
}

// Mem is the default in-memory backend: payloads live in a handle-keyed
// map exactly as they used to live inside the store's blob directory,
// preserving byte-identical behavior — copied payloads are GC-managed
// and shared with readers, arena-owned payloads are refcounted and
// recycled when the last pin drops.
type Mem struct {
	mu   sync.Mutex
	m    map[Handle]*Ref
	next uint64
	used int64
	held int64 // Σ cap of the retained payload buffers
}

// NewMem creates an in-memory backend.
func NewMem() *Mem { return &Mem{m: make(map[Handle]*Ref)} }

// Kind implements TierBackend.
func (b *Mem) Kind() string { return "mem" }

// Resident implements TierBackend.
func (b *Mem) Resident() bool { return true }

// Open implements TierBackend.
func (b *Mem) Open() error { return nil }

// Recovered implements TierBackend.
func (b *Mem) Recovered() []RecoveredEntry { return nil }

// Put implements TierBackend.
func (b *Mem) Put(_ float64, _ string, r *Ref) (Handle, error) {
	b.mu.Lock()
	b.next++
	h := Handle(b.next)
	b.m[h] = r
	b.used += r.Len()
	b.held += int64(cap(r.Data()))
	b.mu.Unlock()
	return h, nil
}

// Peek implements TierBackend.
func (b *Mem) Peek(_ float64, h Handle) (*Ref, error) {
	b.mu.Lock()
	r, ok := b.m[h]
	if ok {
		r.Retain()
	}
	b.mu.Unlock()
	if !ok {
		return nil, ErrUnknownHandle
	}
	return r, nil
}

// MoveOut implements TierBackend.
func (b *Mem) MoveOut(_ float64, h Handle) (*Ref, error) {
	b.mu.Lock()
	r, ok := b.m[h]
	if ok {
		delete(b.m, h)
		b.used -= r.Len()
		b.held -= int64(cap(r.Data()))
	}
	b.mu.Unlock()
	if !ok {
		return nil, ErrUnknownHandle
	}
	return r, nil
}

// Delete implements TierBackend.
func (b *Mem) Delete(h Handle) {
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

// Used implements TierBackend.
func (b *Mem) Used() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Held implements Holder.
func (b *Mem) Held() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.held
}

// Len implements TierBackend.
func (b *Mem) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.m)
}

// Sync implements TierBackend.
func (b *Mem) Sync() error { return nil }

// Close implements TierBackend: every stored reference is released, so
// arena-owned payloads (modulo outstanding Peek pins) return to the
// bufpool.
func (b *Mem) Close() error {
	b.mu.Lock()
	old := b.m
	b.m = make(map[Handle]*Ref)
	b.used, b.held = 0, 0
	b.mu.Unlock()
	for _, r := range old {
		r.Release()
	}
	return nil
}
