package monitor

import (
	"testing"

	"hcompress/internal/store"
	"hcompress/internal/tier"
)

func newStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(tier.Hierarchy{Tiers: []tier.Spec{
		{Name: "ram", Capacity: 1000, Latency: 0, Bandwidth: 1e9, Lanes: 1},
		{Name: "ssd", Capacity: 4000, Latency: 0, Bandwidth: 1e8, Lanes: 1},
	}}, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStatusCaching(t *testing.T) {
	st := newStore(t)
	m := New(st, 10.0) // refresh every 10 virtual seconds
	s1 := m.Status(0)
	if s1[0].Used != 0 {
		t.Fatal("fresh store should be empty")
	}
	st.Put(0, 0, "k", nil, 500)
	// Within the refresh window the monitor serves stale data — exactly
	// the behaviour of a periodic du/iostat sampler.
	s2 := m.Status(5)
	if s2[0].Used != 0 {
		t.Fatal("status should be cached (stale)")
	}
	// Past the interval it refreshes.
	s3 := m.Status(10)
	if s3[0].Used != 500 {
		t.Fatalf("status should have refreshed: %+v", s3[0])
	}
	if m.Refreshes() != 2 {
		t.Fatalf("refreshes %d want 2", m.Refreshes())
	}
}

func TestForceRefresh(t *testing.T) {
	st := newStore(t)
	m := New(st, 1000.0)
	m.Status(0)
	st.Put(0, 1, "k", nil, 700)
	m.ForceRefresh()
	s := m.Status(0.1)
	if s[1].Used != 700 {
		t.Fatalf("force refresh ineffective: %+v", s[1])
	}
}

func TestZeroIntervalAlwaysFresh(t *testing.T) {
	st := newStore(t)
	m := New(st, 0)
	m.Status(0)
	st.Put(0, 0, "k", nil, 100)
	if s := m.Status(0); s[0].Used != 100 {
		t.Fatal("zero interval should always be fresh")
	}
}

func TestStoreAccessor(t *testing.T) {
	st := newStore(t)
	m := New(st, 1)
	if m.Store() != st {
		t.Fatal("Store() identity")
	}
}
