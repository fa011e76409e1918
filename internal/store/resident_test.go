package store

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"hcompress/internal/bufpool"
	"hcompress/internal/telemetry"
	"hcompress/internal/tier"
)

// heldCaps sums, per tier, the capacity of every payload buffer the
// store's resident backends keep, by peeking each blob.
func heldCaps(t *testing.T, s *Store) []int64 {
	t.Helper()
	s.mu.RLock()
	var keys []string
	for k := range s.blobs {
		keys = append(keys, k)
	}
	s.mu.RUnlock()
	sums := make([]int64, len(s.tiers))
	for _, k := range keys {
		b, err := s.Peek(0, k)
		if err != nil {
			t.Fatalf("peek %q: %v", k, err)
		}
		if s.be[b.Tier].Resident() {
			sums[b.Tier] += int64(cap(b.Data))
		}
		s.Release(b)
	}
	return sums
}

// checkResidentGauge asserts hc_tier_resident_bytes equals the summed
// capacity of each resident tier's payloads and is at least its used
// bytes; a non-resident tier registers no gauge.
func checkResidentGauge(t *testing.T, step string, s *Store, reg *telemetry.Registry) {
	t.Helper()
	g := reg.Snapshot().Gauges
	for i, want := range heldCaps(t, s) {
		name := fmt.Sprintf("hc_tier_resident_bytes{tier=%q}", s.tiers[i].spec.Name)
		got, ok := g[name]
		if !s.be[i].Resident() {
			if ok {
				t.Fatalf("%s: non-resident tier %s exports %s", step, s.tiers[i].spec.Name, name)
			}
			continue
		}
		if int64(got) != want {
			t.Fatalf("%s: %s = %v, payload buffers sum to %d", step, name, got, want)
		}
		if used := s.Used(i); int64(got) < used {
			t.Fatalf("%s: %s = %v below the tier's %d used bytes", step, name, got, used)
		}
	}
}

func TestResidentBytesGauge(t *testing.T) {
	h := tier.Hierarchy{Tiers: []tier.Spec{
		{Name: "ram", Capacity: 1 << 20, Bandwidth: 1e9, Lanes: 2},
		{Name: "nvme", Capacity: 1 << 20, Bandwidth: 1e9, Lanes: 1, Backend: tier.BackendFile},
		tier.CloudSpec(1 << 30),
	}}
	reg := telemetry.New()
	out0, _ := bufpool.Resident()
	s, err := Open(h, Options{KeepData: true, DataDir: t.TempDir(), Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	owned := func(n int, fill byte) []byte {
		b := bufpool.GetResident(n)
		for i := range b {
			b[i] = fill
		}
		return b
	}
	put := func(tr int, key string, data []byte, own bool) {
		t.Helper()
		var err error
		if own {
			_, err = s.PutOwned(0, tr, key, data, int64(len(data)))
		} else {
			_, err = s.Put(0, tr, key, data, int64(len(data)))
		}
		if err != nil {
			t.Fatalf("put %q on %d: %v", key, tr, err)
		}
	}
	put(0, "a", owned(64<<10+20, 1), true)
	put(0, "b", owned(5000, 2), true)
	put(0, "c", bytes.Repeat([]byte{3}, 777), false)
	put(2, "d", owned(16<<10+20, 4), true)
	checkResidentGauge(t, "puts", s, reg)

	put(0, "a", owned(100<<10, 5), true) // overwrite in place
	put(0, "b", owned(9000, 6), true)
	checkResidentGauge(t, "overwrites", s, reg)

	for _, mv := range []struct {
		key string
		dst int
	}{{"a", 1}, {"b", 2}, {"a", 0}, {"d", 0}, {"c", 2}} {
		if _, err := s.Move(0, mv.key, mv.dst); err != nil {
			t.Fatalf("move %q to %d: %v", mv.key, mv.dst, err)
		}
		checkResidentGauge(t, fmt.Sprintf("move %s to %d", mv.key, mv.dst), s, reg)
	}
	if err := s.Delete("d"); err != nil {
		t.Fatal(err)
	}
	checkResidentGauge(t, "delete", s, reg)
	s.Reset()
	checkResidentGauge(t, "reset", s, reg)
	put(0, "e", owned(70<<10, 7), true)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for name, v := range reg.Snapshot().Gauges {
		if v != 0 && len(name) > 22 && name[:22] == "hc_tier_resident_bytes" {
			t.Errorf("after Close %s = %v", name, v)
		}
	}
	if out, _ := bufpool.Resident(); out != out0 {
		t.Errorf("after Close %d resident bytes are still out", out-out0)
	}
}

// waitResident runs the collector until the resident pool's outstanding
// bytes fall back to want, failing after a few seconds.
func waitResident(t *testing.T, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		out, _ := bufpool.Resident()
		if out == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d resident bytes still out after the store became unreachable", out-want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestUnclosedStoreReturnsPayloads drops a store without Close: its mem
// and cloud tiers' payloads must return to the resident pool once the
// store is unreachable.
func TestUnclosedStoreReturnsPayloads(t *testing.T) {
	out0, _ := bufpool.Resident()
	func() {
		h := tier.Hierarchy{Tiers: []tier.Spec{
			{Name: "ram", Capacity: 1 << 20, Bandwidth: 1e9, Lanes: 2},
			tier.CloudSpec(1 << 30),
		}}
		s, err := Open(h, Options{KeepData: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if _, err := s.PutOwned(0, i%2, fmt.Sprint(i), bufpool.GetResident(20<<10), 20<<10); err != nil {
				t.Fatal(err)
			}
		}
		if out, _ := bufpool.Resident(); out == out0 {
			t.Fatal("stored payloads are not resident buffers")
		}
	}()
	waitResident(t, out0)
}
