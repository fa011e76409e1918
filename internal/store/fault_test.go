package store

import (
	"bytes"
	"errors"
	"testing"

	"hcompress/internal/fault"
	"hcompress/internal/hcerr"
)

func faultStore(t *testing.T, windows ...fault.Window) *Store {
	t.Helper()
	return sinkStore(t, nil, windows...)
}

// sinkStore is faultStore with a health sink observing every outcome.
func sinkStore(t *testing.T, sink func(now float64, tier int, err error), windows ...fault.Window) *Store {
	t.Helper()
	opts := Options{KeepData: true, HealthSink: sink}
	if len(windows) > 0 {
		opts.FaultInjector = &fault.Schedule{Windows: windows}
	}
	s, err := Open(testHier(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutFailsDuringOutage(t *testing.T) {
	s := faultStore(t, fault.Window{Tier: 0, Start: 0, End: 5, Mode: fault.Outage})
	_, err := s.Put(1, 0, "k", []byte("abc"), 3)
	if !errors.Is(err, hcerr.ErrTierOffline) {
		t.Fatalf("want ErrTierOffline, got %v", err)
	}
	if hcerr.IsTransient(err) {
		t.Fatal("outage must be sticky, not transient")
	}
	// No side effects: the key does not exist.
	if _, err := stat(s, "k"); !errors.Is(err, errNotFound) {
		t.Fatalf("failed put must leave no blob: %v", err)
	}
	// Outside the window the same put succeeds, and the other tier was
	// never affected.
	if _, err := s.Put(6, 0, "k", []byte("abc"), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(1, 1, "k2", []byte("abc"), 3); err != nil {
		t.Fatalf("outage must be scoped to its tier: %v", err)
	}
}

func TestTransientWindowMarksTransient(t *testing.T) {
	s := faultStore(t, fault.Window{Tier: 0, Start: 0, End: 5, Mode: fault.Transient})
	_, err := s.Put(1, 0, "k", []byte("abc"), 3)
	if err == nil || !hcerr.IsTransient(err) {
		t.Fatalf("want transient error, got %v", err)
	}
}

func TestGetAndReadTimeFailDuringOutage(t *testing.T) {
	s := faultStore(t, fault.Window{Tier: 0, Start: 10, Mode: fault.Outage})
	if _, err := s.Put(0, 0, "k", []byte("abc"), 3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(11, "k"); !errors.Is(err, hcerr.ErrTierOffline) {
		t.Fatalf("get: want ErrTierOffline, got %v", err)
	}
	if _, err := s.ReadTime(11, "k"); !errors.Is(err, hcerr.ErrTierOffline) {
		t.Fatalf("readtime: want ErrTierOffline, got %v", err)
	}
	if _, err := s.Peek(11, "k"); !errors.Is(err, hcerr.ErrTierOffline) {
		t.Fatalf("peek: want ErrTierOffline, got %v", err)
	}
}

func TestLatencySpikeDelaysCompletion(t *testing.T) {
	base, err := faultStore(t).Put(0, 0, "a", []byte("abc"), 3)
	if err != nil {
		t.Fatal(err)
	}
	s := faultStore(t, fault.Window{Tier: 0, Start: 0, End: 100, Mode: fault.LatencySpike, Extra: 0.25})
	slow, err := s.Put(0, 0, "a", []byte("abc"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if slow < base+0.25 {
		t.Fatalf("spike must add 0.25s: base=%v slow=%v", base, slow)
	}
}

func TestCorruptReadsFlipBitsButPreserveMedia(t *testing.T) {
	s := faultStore(t, fault.Window{Tier: 0, Start: 10, End: 20, Mode: fault.CorruptReads})
	data := []byte("pristine payload")
	if _, err := s.Put(0, 0, "k", data, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	b, _, err := s.Get(15, "k")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b.Data, data) {
		t.Fatal("read inside corrupt window must return flipped bits")
	}
	// The media is intact: a read outside the window is clean.
	b2, _, err := s.Get(25, "k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b2.Data, data) {
		t.Fatal("stored bytes must survive a read-side corruption")
	}
}

func TestCapacityLieShrinksReportedRemaining(t *testing.T) {
	s := faultStore(t, fault.Window{Tier: 0, Start: 0, End: 100, Mode: fault.CapacityLie, CapFraction: 0.5})
	sts := s.Status(1)
	if want := int64(500); sts[0].Remaining != want {
		t.Fatalf("lied Remaining = %d, want %d", sts[0].Remaining, want)
	}
	if sts[1].Remaining != 5000 {
		t.Fatalf("lie must be scoped to its tier: %d", sts[1].Remaining)
	}
	// Enforcement uses true capacity: a put larger than the lie but
	// within the real tier still succeeds.
	if _, err := s.Put(1, 0, "k", make([]byte, 800), 800); err != nil {
		t.Fatalf("capacity lie must not affect placement enforcement: %v", err)
	}
}

func TestHealthSinkObservesOutcomes(t *testing.T) {
	type obs struct {
		tier int
		err  bool
	}
	var seen []obs
	s := sinkStore(t, func(_ float64, tier int, err error) {
		seen = append(seen, obs{tier, err != nil})
	}, fault.Window{Tier: 0, Start: 5, End: 10, Mode: fault.Outage})
	if _, err := s.Put(0, 0, "k", []byte("abc"), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(6, 0, "k2", []byte("abc"), 3); err == nil {
		t.Fatal("put inside outage must fail")
	}
	want := []obs{{0, false}, {0, true}}
	if len(seen) != len(want) || seen[0] != want[0] || seen[1] != want[1] {
		t.Fatalf("health sink saw %+v, want %+v", seen, want)
	}
}

func TestCapacityMissNotReportedToSink(t *testing.T) {
	errsSeen := 0
	s := sinkStore(t, func(_ float64, _ int, err error) {
		if err != nil {
			errsSeen++
		}
	})
	if _, err := s.Put(0, 0, "big", make([]byte, 2000), 2000); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("want ErrNoCapacity, got %v", err)
	}
	if errsSeen != 0 {
		t.Fatal("a full tier is healthy: capacity misses must not feed the health sink")
	}
}
