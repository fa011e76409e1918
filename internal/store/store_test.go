package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"hcompress/internal/bufpool"
	"hcompress/internal/tier"
)

// stat returns blob metadata without modeling an I/O.
func stat(s *Store, key string) (Blob, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	blob, ok := s.blobs[key]
	if !ok {
		return Blob{}, fmt.Errorf("%w: %q", errNotFound, key)
	}
	b := *blob
	b.Data = nil
	b.ref = nil
	return b, nil
}

func testHier() tier.Hierarchy {
	return tier.Hierarchy{Tiers: []tier.Spec{
		{Name: "ram", Capacity: 1000, Latency: 0, Bandwidth: 1e9, Lanes: 2},
		{Name: "ssd", Capacity: 5000, Latency: 0, Bandwidth: 1e8, Lanes: 1},
	}}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(testHier(), Options{KeepData: true})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello tiered world")
	end, err := s.Put(0, 0, "k1", data, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 {
		t.Fatal("put must advance time")
	}
	b, end2, err := s.Get(end, "k1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Data, data) || b.Tier != 0 || b.Size != int64(len(data)) {
		t.Fatalf("blob mismatch: %+v", b)
	}
	if end2 <= end {
		t.Fatal("get must advance time")
	}
}

func TestPutCopiesData(t *testing.T) {
	s, _ := Open(testHier(), Options{KeepData: true})
	data := []byte("mutate me")
	s.Put(0, 0, "k", data, int64(len(data)))
	data[0] = 'X'
	b, _, _ := s.Get(0, "k")
	if b.Data[0] == 'X' {
		t.Fatal("store must copy payloads")
	}
}

func TestNoDataMode(t *testing.T) {
	s, _ := Open(testHier(), Options{})
	if _, err := s.Put(0, 1, "k", []byte("abc"), 3); err != nil {
		t.Fatal(err)
	}
	b, _, err := s.Get(0, "k")
	if err != nil {
		t.Fatal(err)
	}
	if b.Data != nil {
		t.Fatal("no-data mode must not retain payloads")
	}
	if b.Size != 3 {
		t.Fatal("size must still be tracked")
	}
}

func TestCapacityEnforced(t *testing.T) {
	s, _ := Open(testHier(), Options{})
	if _, err := s.Put(0, 0, "a", nil, 900); err != nil {
		t.Fatal(err)
	}
	_, err := s.Put(0, 0, "b", nil, 200)
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("want ErrNoCapacity, got %v", err)
	}
	// The failed put must not leak capacity.
	if s.Used(0) != 900 {
		t.Fatalf("used %d want 900", s.Used(0))
	}
	if _, err := s.Put(0, 0, "c", nil, 100); err != nil {
		t.Fatal(err)
	}
}

func TestOverwriteReleasesOldAllocation(t *testing.T) {
	s, _ := Open(testHier(), Options{})
	s.Put(0, 0, "k", nil, 800)
	// Overwriting with a smaller blob on another tier frees tier 0.
	if _, err := s.Put(0, 1, "k", nil, 100); err != nil {
		t.Fatal(err)
	}
	if s.Used(0) != 0 || s.Used(1) != 100 {
		t.Fatalf("used = %d/%d", s.Used(0), s.Used(1))
	}
	// Overwrite that does not fit must roll back cleanly.
	s.Put(0, 0, "big", nil, 950)
	if _, err := s.Put(0, 0, "k", nil, 200); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("want ErrNoCapacity, got %v", err)
	}
	if got, err := stat(s, "k"); err != nil || got.Tier != 1 || got.Size != 100 {
		t.Fatalf("rollback corrupted blob: %+v %v", got, err)
	}
}

func TestDelete(t *testing.T) {
	s, _ := Open(testHier(), Options{})
	s.Put(0, 0, "k", nil, 500)
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if s.Used(0) != 0 {
		t.Fatal("delete must release capacity")
	}
	if err := s.Delete("k"); !errors.Is(err, errNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if _, _, err := s.Get(0, "k"); !errors.Is(err, errNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestMove(t *testing.T) {
	s, _ := Open(testHier(), Options{})
	s.Put(0, 0, "k", nil, 400)
	end, err := s.Move(1.0, "k", 1)
	if err != nil {
		t.Fatal(err)
	}
	if end <= 1.0 {
		t.Fatal("move must cost time")
	}
	if s.Used(0) != 0 || s.Used(1) != 400 {
		t.Fatalf("used = %d/%d", s.Used(0), s.Used(1))
	}
	b, _ := stat(s, "k")
	if b.Tier != 1 {
		t.Fatalf("tier %d", b.Tier)
	}
	// Move to same tier is a no-op.
	if end, err := s.Move(2.0, "k", 1); err != nil || end != 2.0 {
		t.Fatalf("no-op move: %v %v", end, err)
	}
	// Move to a full tier fails without side effects.
	s2, _ := Open(testHier(), Options{})
	s2.Put(0, 0, "fill", nil, 1000)
	s2.Put(0, 1, "big", nil, 4500)
	if _, err := s2.Move(0, "fill", 1); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("want ErrNoCapacity, got %v", err)
	}
	if s2.Used(0) != 1000 || s2.Used(1) != 4500 {
		t.Fatalf("failed move had side effects: %d/%d", s2.Used(0), s2.Used(1))
	}
}

func TestStatusReflectsState(t *testing.T) {
	s, _ := Open(testHier(), Options{})
	s.Put(0, 0, "a", nil, 100)
	s.Put(0, 1, "b", nil, 2000)
	st := s.Status(0)
	if len(st) != 2 {
		t.Fatal("two tiers expected")
	}
	if st[0].Used != 100 || st[0].Remaining != 900 || !st[0].Available {
		t.Fatalf("tier0 status %+v", st[0])
	}
	if st[1].Used != 2000 || st[1].Remaining != 3000 {
		t.Fatalf("tier1 status %+v", st[1])
	}
	// Immediately after the puts, lanes should still be busy at t=0.
	if st[1].QueueLen == 0 {
		t.Error("tier1 lane should be busy at t=0")
	}
	if st[1].Backlog <= 0 {
		t.Error("tier1 should report backlog")
	}
}

func TestTimingModelsContention(t *testing.T) {
	h := tier.Hierarchy{Tiers: []tier.Spec{
		{Name: "d", Capacity: 1 << 30, Latency: 0, Bandwidth: 1e6, Lanes: 1},
	}}
	s, _ := Open(h, Options{})
	e1, _ := s.Put(0, 0, "a", nil, 1e6)
	e2, _ := s.Put(0, 0, "b", nil, 1e6)
	if e1 != 1 || e2 != 2 {
		t.Fatalf("contention not modeled: %v %v", e1, e2)
	}
}

func TestResetClearsEverything(t *testing.T) {
	s, _ := Open(testHier(), Options{KeepData: true})
	s.Put(0, 0, "k", []byte("x"), 1)
	s.Reset()
	if s.Len() != 0 || s.Used(0) != 0 {
		t.Fatal("reset incomplete")
	}
	if _, _, err := s.Get(0, "k"); !errors.Is(err, errNotFound) {
		t.Fatal("blob survived reset")
	}
}

func TestInvalidTier(t *testing.T) {
	s, _ := Open(testHier(), Options{})
	if _, err := s.Put(0, 7, "k", nil, 1); err == nil {
		t.Error("invalid tier accepted")
	}
	if _, err := s.Put(0, -1, "k", nil, 1); err == nil {
		t.Error("negative tier accepted")
	}
	if _, err := s.Put(0, 0, "k", nil, -5); err == nil {
		t.Error("negative size accepted")
	}
	if s.Used(9) != 0 {
		t.Error("out-of-range Used should return 0")
	}
}

func TestInvalidHierarchyRejected(t *testing.T) {
	if _, err := Open(tier.Hierarchy{}, Options{}); err == nil {
		t.Error("empty hierarchy accepted")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, _ := Open(tier.Hierarchy{Tiers: []tier.Spec{
		{Name: "ram", Capacity: 1 << 30, Latency: 0, Bandwidth: 1e12, Lanes: 8},
	}}, Options{KeepData: true})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("g%d-%d", g, i)
				if _, err := s.Put(0, 0, key, []byte{byte(i)}, 1); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := s.Get(0, key); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 1600 {
		t.Fatalf("len %d want 1600", s.Len())
	}
}

// arenaPuts reports the arena's lifetime recycle counter.
func arenaPuts() int64 {
	_, _, _, put := bufpool.Stats()
	return put
}

func TestPutOwnedRecyclesOnDelete(t *testing.T) {
	s, _ := Open(testHier(), Options{KeepData: true})
	data := bufpool.Get(100)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := s.PutOwned(0, 0, "k", data, 100); err != nil {
		t.Fatal(err)
	}
	before := arenaPuts()
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if arenaPuts() <= before {
		t.Error("delete of owned blob did not recycle its payload")
	}
}

func TestPutOwnedRecyclesOnOverwrite(t *testing.T) {
	s, _ := Open(testHier(), Options{KeepData: true})
	old := bufpool.Get(64)
	if _, err := s.PutOwned(0, 0, "k", old, 64); err != nil {
		t.Fatal(err)
	}
	before := arenaPuts()
	if _, err := s.Put(0, 0, "k", []byte("replacement"), 11); err != nil {
		t.Fatal(err)
	}
	if arenaPuts() <= before {
		t.Error("overwrite did not recycle the old owned payload")
	}
}

func TestPutOwnedRecyclesOnReset(t *testing.T) {
	s, _ := Open(testHier(), Options{KeepData: true})
	if _, err := s.PutOwned(0, 0, "k", bufpool.Get(64), 64); err != nil {
		t.Fatal(err)
	}
	before := arenaPuts()
	s.Reset()
	if arenaPuts() <= before {
		t.Error("reset did not recycle owned payloads")
	}
}

func TestPutOwnedErrorLeavesCallerOwnership(t *testing.T) {
	s, _ := Open(testHier(), Options{KeepData: true})
	data := bufpool.Get(64)
	copy(data, "precious")
	before := arenaPuts()
	// Tier 0 capacity is 1000: oversize placement must fail.
	if _, err := s.PutOwned(0, 0, "big", data, 4000); err == nil {
		t.Fatal("oversize PutOwned accepted")
	}
	if arenaPuts() != before {
		t.Error("failed PutOwned recycled the caller's buffer")
	}
	if string(data[:8]) != "precious" {
		t.Error("failed PutOwned corrupted the caller's buffer")
	}
	bufpool.Put(data)
}

func TestPutOwnedRetentionOffRecyclesImmediately(t *testing.T) {
	s, _ := Open(testHier(), Options{})
	before := arenaPuts()
	if _, err := s.PutOwned(0, 0, "k", bufpool.Get(64), 64); err != nil {
		t.Fatal(err)
	}
	if arenaPuts() <= before {
		t.Error("retention-off PutOwned did not recycle the payload")
	}
}

func TestPeekPinSurvivesDelete(t *testing.T) {
	s, _ := Open(testHier(), Options{KeepData: true})
	data := bufpool.Get(32)
	copy(data, "pinned payload bytes")
	if _, err := s.PutOwned(0, 0, "k", data, 32); err != nil {
		t.Fatal(err)
	}
	b, err := s.Peek(0, "k")
	if err != nil {
		t.Fatal(err)
	}
	before := arenaPuts()
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	// The peek pin must keep the payload out of the arena...
	if arenaPuts() != before {
		t.Fatal("payload recycled while still pinned by Peek")
	}
	if string(b.Data[:6]) != "pinned" {
		t.Error("pinned payload corrupted after delete")
	}
	// ...until Release drops the last reference.
	s.Release(b)
	if arenaPuts() <= before {
		t.Error("Release of last pin did not recycle the payload")
	}
}

func TestGetCopiesOwnedPayload(t *testing.T) {
	s, _ := Open(testHier(), Options{KeepData: true})
	data := bufpool.Get(16)
	copy(data, "owned-payload")
	if _, err := s.PutOwned(0, 0, "k", data, 16); err != nil {
		t.Fatal(err)
	}
	b, _, err := s.Get(0, "k")
	if err != nil {
		t.Fatal(err)
	}
	b.Data[0] = 'X' // caller may mutate a Get result freely
	b2, err := s.Peek(0, "k")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release(b2)
	if string(b2.Data[:5]) != "owned" {
		t.Error("mutating a Get result corrupted the stored payload")
	}
}
