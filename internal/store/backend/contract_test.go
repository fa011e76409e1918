package backend_test

import (
	"bytes"
	"errors"
	"testing"

	"hcompress/internal/bufpool"
	"hcompress/internal/store/backend"
	"hcompress/internal/store/cloudtier"
	"hcompress/internal/store/durable"
)

// gcRef wraps a private copy of data in a GC-managed Ref, mirroring how
// the store hands copied payloads to a resident backend.
func gcRef(data []byte) *backend.Ref {
	cp := make([]byte, len(data))
	copy(cp, data)
	return backend.NewRef(cp, nil)
}

// TestBackendContract runs the behavioral contract every TierBackend
// must satisfy against all three implementations.
func TestBackendContract(t *testing.T) {
	makers := []struct {
		name string
		make func(t *testing.T) backend.TierBackend
	}{
		{"mem", func(t *testing.T) backend.TierBackend { return backend.NewMem() }},
		{"file", func(t *testing.T) backend.TierBackend { return durable.New(t.TempDir(), durable.Options{}) }},
		{"cloud", func(t *testing.T) backend.TierBackend { return cloudtier.New(0.023, 0.09) }},
	}
	for _, mk := range makers {
		t.Run(mk.name, func(t *testing.T) {
			b := mk.make(t)
			if b.Kind() == "" {
				t.Fatal("Kind must be non-empty")
			}
			if err := b.Open(); err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if got := b.Recovered(); len(got) != 0 {
				t.Fatalf("fresh backend recovered %d entries", len(got))
			}

			d1 := []byte("payload-one-payload-one")
			d2 := []byte("payload-two")
			h1, err := b.Put(1.0, "a", gcRef(d1))
			if err != nil {
				t.Fatal(err)
			}
			if h1 == 0 {
				t.Fatal("zero handle issued")
			}
			h2, err := b.Put(2.0, "b", gcRef(d2))
			if err != nil {
				t.Fatal(err)
			}
			if h2 == h1 {
				t.Fatal("handles must be fresh per Put")
			}
			if got, want := b.Used(), int64(len(d1)+len(d2)); got != want {
				t.Fatalf("Used = %d, want %d", got, want)
			}
			if b.Len() != 2 {
				t.Fatalf("Len = %d, want 2", b.Len())
			}

			// Same-key puts mint distinct handles and both stay readable:
			// race resolution belongs to the store's directory, not here.
			h1b, err := b.Put(3.0, "a", gcRef(d2))
			if err != nil {
				t.Fatal(err)
			}
			if h1b == h1 {
				t.Fatal("same-key Put reused a handle")
			}
			for _, c := range []struct {
				h    backend.Handle
				want []byte
			}{{h1, d1}, {h2, d2}, {h1b, d2}} {
				r, err := b.Peek(4.0, c.h)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(r.Data(), c.want) {
					t.Fatalf("Peek(%d) mismatch", c.h)
				}
				r.Release()
			}
			b.Delete(h1b)

			if _, err := b.Peek(5.0, backend.Handle(1<<40)); !errors.Is(err, backend.ErrUnknownHandle) {
				t.Fatalf("Peek(unknown) = %v, want ErrUnknownHandle", err)
			}

			// MoveOut hands the payload over exactly once and can be
			// re-Put (the cross-tier handoff the store performs).
			r, err := b.MoveOut(6.0, h1)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(r.Data(), d1) {
				t.Fatal("MoveOut payload mismatch")
			}
			if got, want := b.Used(), int64(len(d2)); got != want {
				t.Fatalf("Used after MoveOut = %d, want %d", got, want)
			}
			if _, err := b.MoveOut(6.5, h1); !errors.Is(err, backend.ErrUnknownHandle) {
				t.Fatalf("second MoveOut = %v, want ErrUnknownHandle", err)
			}
			h3, err := b.Put(7.0, "a", r)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := b.Peek(8.0, h3)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(r2.Data(), d1) {
				t.Fatal("re-Put payload mismatch")
			}
			r2.Release()

			b.Delete(backend.Handle(1 << 40)) // unknown: must be a no-op
			b.Delete(h3)
			b.Delete(h2)
			if b.Used() != 0 || b.Len() != 0 {
				t.Fatalf("after deletes Used=%d Len=%d, want 0/0", b.Used(), b.Len())
			}
			if err := b.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBackendArenaRecycling proves the ownership contract: an arena
// buffer handed to Put returns to the bufpool once the backend is done
// with it (immediately for a durable backend, on Delete for resident
// ones).
func TestBackendArenaRecycling(t *testing.T) {
	makers := []struct {
		name string
		make func(t *testing.T) backend.TierBackend
	}{
		{"mem", func(t *testing.T) backend.TierBackend { return backend.NewMem() }},
		{"file", func(t *testing.T) backend.TierBackend { return durable.New(t.TempDir(), durable.Options{}) }},
		{"cloud", func(t *testing.T) backend.TierBackend { return cloudtier.New(0, 0) }},
	}
	for _, mk := range makers {
		t.Run(mk.name, func(t *testing.T) {
			b := mk.make(t)
			if err := b.Open(); err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			buf := bufpool.Get(64)
			for i := range buf {
				buf[i] = byte(i)
			}
			_, _, _, putsBefore := bufpool.Stats()
			h, err := b.Put(1.0, "arena", backend.NewRef(buf, bufpool.Put))
			if err != nil {
				t.Fatal(err)
			}
			b.Delete(h)
			if _, _, _, putsAfter := bufpool.Stats(); putsAfter <= putsBefore {
				t.Fatal("arena buffer never returned to the pool")
			}
		})
	}
}
