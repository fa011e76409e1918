package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"
)

// errCrash is the sentinel the armed kill hook returns; the backend
// propagates it out of the interrupted operation.
var errCrash = errors.New("simulated crash")

// TestCrashMatrix drives every named kill point: seed a backend with
// known contents, arm the kill, run the interrupted operation, reopen
// the directory cold, and require byte-identical recovered state plus
// exact capacity accounting.
func TestCrashMatrix(t *testing.T) {
	seedData := func() map[string][]byte {
		return map[string][]byte{
			"alpha": bytes.Repeat([]byte{1}, 300),
			"beta":  bytes.Repeat([]byte{2}, 200),
			"gamma": bytes.Repeat([]byte{3}, 100),
		}
	}
	newPayload := bytes.Repeat([]byte{9}, 250)

	cases := []struct {
		point string
		// op runs the interrupted operation with the kill armed and must
		// observe errCrash.
		op func(t *testing.T, b *Backend)
		// wantNew reports whether the recovered state must include the
		// payload the crashed operation was writing.
		wantNew bool
	}{
		{point: "put.before-append", op: putOp(newPayload)},
		{point: "put.torn-append", op: putOp(newPayload)},
		// The append reached the synced journal before the crash, so the
		// write survives even though its caller saw a failure.
		{point: "put.after-append", op: putOp(newPayload), wantNew: true},
		{point: "compact.before-write", op: compactOp},
		{point: "compact.mid-write", op: compactOp},
		{point: "compact.after-rename", op: compactOp},
		{point: "compact.mid-delete", op: compactOp},
	}
	for _, tc := range cases {
		t.Run(tc.point, func(t *testing.T) {
			dir := t.TempDir()
			b := New(dir, Options{})
			if err := b.Open(); err != nil {
				t.Fatal(err)
			}
			want := seedData()
			for k, v := range want {
				if _, err := b.Put(0, k, gcRef(v)); err != nil {
					t.Fatal(err)
				}
			}
			armed := tc.point
			b.kill = func(point string) error {
				if point == armed {
					return errCrash
				}
				return nil
			}
			tc.op(t, b)
			crash(b)
			if tc.wantNew {
				want["delta"] = newPayload
			}

			b2 := New(dir, Options{})
			if err := b2.Open(); err != nil {
				t.Fatalf("recovery Open: %v", err)
			}
			defer b2.Close()
			rec := b2.Recovered()
			if len(rec) != len(want) {
				t.Fatalf("recovered %d keys, want %d", len(rec), len(want))
			}
			var used int64
			for _, e := range rec {
				w, ok := want[e.Key]
				if !ok {
					t.Fatalf("unexpected recovered key %q", e.Key)
				}
				r, err := b2.Peek(0, e.Handle)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(r.Data(), w) {
					t.Fatalf("key %q: recovered payload differs", e.Key)
				}
				r.Release()
				used += int64(len(w))
			}
			if b2.Used() != used {
				t.Fatalf("Used = %d, want %d", b2.Used(), used)
			}

			// The recovered backend must be fully writable again.
			if _, err := b2.Put(1, "post-recovery", gcRef([]byte("ok"))); err != nil {
				t.Fatalf("Put after recovery: %v", err)
			}
		})
	}
}

func putOp(payload []byte) func(t *testing.T, b *Backend) {
	return func(t *testing.T, b *Backend) {
		t.Helper()
		if _, err := b.Put(1, "delta", gcRef(payload)); !errors.Is(err, errCrash) {
			t.Fatalf("Put = %v, want simulated crash", err)
		}
	}
}

func compactOp(t *testing.T, b *Backend) {
	t.Helper()
	if err := b.Compact(); !errors.Is(err, errCrash) {
		t.Fatalf("Compact = %v, want simulated crash", err)
	}
}

// crash closes a killed backend's descriptors without syncing, the way
// process death would.
func crash(b *Backend) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	for _, f := range b.files {
		f.Close()
	}
	b.files = make(map[int64]*os.File)
}

// TestCrashMidDeleteLeavesIdempotentReplay exercises the specific
// ordering argument: after compact.mid-delete the output segment and a
// surviving input coexist, and replay must fold them into one copy.
func TestCrashMidDeleteLeavesIdempotentReplay(t *testing.T) {
	dir := t.TempDir()
	b := New(dir, Options{segmentBytes: 256})
	if err := b.Open(); err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < 6; i++ {
		k := fmt.Sprintf("k%d", i)
		data := bytes.Repeat([]byte{byte(i + 1)}, 180)
		want[k] = data
		if _, err := b.Put(0, k, gcRef(data)); err != nil {
			t.Fatal(err)
		}
	}
	b.kill = func(point string) error {
		if point == "compact.mid-delete" {
			return errCrash
		}
		return nil
	}
	if err := b.Compact(); !errors.Is(err, errCrash) {
		t.Fatalf("Compact = %v, want simulated crash", err)
	}
	crash(b)

	b2 := New(dir, Options{})
	if err := b2.Open(); err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if got := len(b2.Recovered()); got != len(want) {
		t.Fatalf("recovered %d keys, want %d", got, len(want))
	}
	for _, e := range b2.Recovered() {
		r, err := b2.Peek(0, e.Handle)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.Data(), want[e.Key]) {
			t.Fatalf("key %q mismatch", e.Key)
		}
		r.Release()
	}
	if b2.Len() != len(want) {
		t.Fatalf("Len = %d, want %d (duplicate handles must dedup)", b2.Len(), len(want))
	}
}
