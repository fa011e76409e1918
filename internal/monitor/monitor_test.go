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

// TestZeroIntervalReusesUnchangedInstant: at interval 0 a second Status
// at the same virtual time is served from the cache only while nothing
// in the store changed, since a new sample would be identical; a read's
// device time, a later instant or a recovery probe each force a sample.
func TestZeroIntervalReusesUnchangedInstant(t *testing.T) {
	st := newStore(t)
	m := New(st, 0)
	st.Put(0, 0, "k", nil, 100)
	s1 := m.Status(1)
	if s2 := m.Status(1); &s2[0] != &s1[0] || m.Refreshes() != 1 {
		t.Fatalf("unchanged instant resampled: %d refreshes", m.Refreshes())
	}
	if _, err := st.ReadTime(1, "k"); err != nil {
		t.Fatal(err)
	}
	if s := m.Status(1); s[0].QueueLen == 0 || m.Refreshes() != 2 {
		t.Fatalf("read's queue not sampled: %+v, %d refreshes", s[0], m.Refreshes())
	}
	if m.Status(2); m.Refreshes() != 3 {
		t.Fatalf("later instant served from cache: %d refreshes", m.Refreshes())
	}

	for i := 0; i < 3; i++ {
		m.Observe(2, 0, errBoom)
	}
	p := m.Health()[0].NextProbe
	if sts := m.Status(p); !sts[0].Available {
		t.Fatal("probe should expose the tier")
	}
	if sts := m.Status(p); sts[0].Available {
		t.Fatal("a probe's snapshot exposed the tier to a second plan at the same instant")
	}
}

func TestStoreAccessor(t *testing.T) {
	st := newStore(t)
	m := New(st, 1)
	if m.Store() != st {
		t.Fatal("Store() identity")
	}
}
