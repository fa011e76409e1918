package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hcompress/internal/hcerr"
	"hcompress/internal/store/backend"
)

func gcRef(data []byte) *backend.Ref {
	cp := make([]byte, len(data))
	copy(cp, data)
	return backend.NewRef(cp, nil)
}

// contents reads every live payload by key via Recovered-independent
// means: walk the index under the lock.
func contents(t *testing.T, b *Backend) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	b.mu.Lock()
	handles := make(map[string]backend.Handle, len(b.index))
	for h, e := range b.index {
		handles[e.key] = h
	}
	b.mu.Unlock()
	for k, h := range handles {
		r, err := b.Peek(0, h)
		if err != nil {
			t.Fatalf("Peek(%q): %v", k, err)
		}
		out[k] = append([]byte(nil), r.Data()...)
		r.Release()
	}
	return out
}

func assertContents(t *testing.T, b *Backend, want map[string][]byte) {
	t.Helper()
	got := contents(t, b)
	if len(got) != len(want) {
		t.Fatalf("have %d keys, want %d (got %v)", len(got), len(want), keysOf(got))
	}
	var used int64
	for k, w := range want {
		if !bytes.Equal(got[k], w) {
			t.Fatalf("key %q: payload mismatch", k)
		}
		used += int64(len(w))
	}
	if b.Used() != used {
		t.Fatalf("Used = %d, want %d", b.Used(), used)
	}
}

func keysOf(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestDurableReopenRecovers(t *testing.T) {
	dir := t.TempDir()
	b := New(dir, Options{})
	if err := b.Open(); err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("key-%d", i)
		data := bytes.Repeat([]byte{byte('a' + i)}, 100+i*37)
		want[k] = data
		if _, err := b.Put(float64(i), k, gcRef(data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	b2 := New(dir, Options{})
	if err := b2.Open(); err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	rec := b2.Recovered()
	if len(rec) != len(want) {
		t.Fatalf("recovered %d entries, want %d", len(rec), len(want))
	}
	for i := 1; i < len(rec); i++ {
		if rec[i-1].Key >= rec[i].Key {
			t.Fatal("Recovered must be sorted by key")
		}
	}
	for _, e := range rec {
		r, err := b2.Peek(0, e.Handle)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.Data(), want[e.Key]) || e.Size != int64(len(want[e.Key])) {
			t.Fatalf("recovered %q mismatch", e.Key)
		}
		r.Release()
	}
	assertContents(t, b2, want)
}

func TestDurableSameKeyLastRecordWins(t *testing.T) {
	dir := t.TempDir()
	b := New(dir, Options{})
	if err := b.Open(); err != nil {
		t.Fatal(err)
	}
	// Two live handles for the same key — the crash-window shape a store
	// overwrite leaves when it dies between backend Put and old-handle
	// Delete.
	if _, err := b.Put(0, "k", gcRef([]byte("stale"))); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Put(1, "k", gcRef([]byte("fresh"))); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2 := New(dir, Options{})
	if err := b2.Open(); err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	rec := b2.Recovered()
	if len(rec) != 1 || rec[0].Key != "k" {
		t.Fatalf("recovered = %+v, want one entry for k", rec)
	}
	assertContents(t, b2, map[string][]byte{"k": []byte("fresh")})
}

func TestDurableTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	b := New(dir, Options{})
	if err := b.Open(); err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{"a": []byte("alpha"), "b": []byte("beta")}
	for k, v := range want {
		if _, err := b.Put(0, k, gcRef(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn final append on the newest file: garbage that can
	// never checksum.
	path := newestLog(t, dir)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b2 := New(dir, Options{})
	if err := b2.Open(); err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	assertContents(t, b2, want)
}

func TestDurableNonTailCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force several sealed files.
	b := New(dir, Options{segmentBytes: 256})
	if err := b.Open(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := b.Put(0, fmt.Sprintf("k%d", i), gcRef(bytes.Repeat([]byte{byte(i)}, 200))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the OLDEST file: damage there is not a torn
	// tail and must refuse to open.
	path := oldestLog(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	b2 := New(dir, Options{})
	if err := b2.Open(); !errors.Is(err, hcerr.ErrCorrupted) {
		t.Fatalf("Open = %v, want ErrCorrupted", err)
	}
}

func TestDurablePayloadChecksumVerifiedOnRead(t *testing.T) {
	dir := t.TempDir()
	b := New(dir, Options{})
	if err := b.Open(); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	data := bytes.Repeat([]byte{0x5a}, 512)
	h, err := b.Put(0, "k", gcRef(data))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte behind the backend's back.
	b.mu.Lock()
	e := b.index[h]
	b.mu.Unlock()
	f, err := os.OpenFile(filepath.Join(dir, walName(e.file)), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xa5}, e.off+10); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := b.Peek(0, h); !errors.Is(err, hcerr.ErrCorrupted) {
		t.Fatalf("Peek = %v, want ErrCorrupted", err)
	}
}

func TestDurableCompaction(t *testing.T) {
	dir := t.TempDir()
	b := New(dir, Options{segmentBytes: 512})
	if err := b.Open(); err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	handles := map[string]backend.Handle{}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("k%02d", i)
		data := bytes.Repeat([]byte{byte(i + 1)}, 150)
		h, err := b.Put(0, k, gcRef(data))
		if err != nil {
			t.Fatal(err)
		}
		want[k], handles[k] = data, h
	}
	for i := 0; i < 20; i += 2 {
		k := fmt.Sprintf("k%02d", i)
		b.Delete(handles[k])
		delete(want, k)
	}
	if err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	// All sealed segments merged into one, plus the fresh journal.
	if n := b.SegmentCount(); n != 2 {
		t.Fatalf("SegmentCount = %d, want 2 (one segment + journal)", n)
	}
	assertContents(t, b, want)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2 := New(dir, Options{})
	if err := b2.Open(); err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	assertContents(t, b2, want)
}

func newestLog(t *testing.T, dir string) string { return pickLog(t, dir, false) }
func oldestLog(t *testing.T, dir string) string { return pickLog(t, dir, true) }

func pickLog(t *testing.T, dir string, oldest bool) string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	best, bestID := "", int64(-1)
	for _, de := range des {
		if !strings.HasSuffix(de.Name(), ".log") {
			continue
		}
		id, _, ok := parseLogName(de.Name())
		if !ok {
			continue
		}
		if bestID < 0 || (oldest && id < bestID) || (!oldest && id > bestID) {
			best, bestID = de.Name(), id
		}
	}
	if best == "" {
		t.Fatal("no log files found")
	}
	return filepath.Join(dir, best)
}
