package monitor

import (
	"errors"
	"testing"
)

var errBoom = errors.New("boom")

func TestHealthDegradedThenOffline(t *testing.T) {
	m := New(newStore(t), 0)
	var events []Event
	m.SetEventSink(func(ev Event) { events = append(events, ev) })

	m.Observe(1, 0, errBoom)
	if h := m.Health()[0]; h.State != degraded || h.ErrStreak != 1 {
		t.Fatalf("after one error: %+v", h)
	}
	m.Observe(2, 0, errBoom)
	m.Observe(3, 0, errBoom) // third consecutive error: offline
	if h := m.Health()[0]; h.State != offline {
		t.Fatalf("after three errors: %+v", h)
	}
	if len(events) != 2 || events[0].To != degraded || events[1].To != offline {
		t.Fatalf("transition events: %+v", events)
	}
	if events[1].VTime != 3 {
		t.Fatalf("offline transition time %v want 3", events[1].VTime)
	}
	// The other tier is untouched.
	if h := m.Health()[1]; h.State != healthy {
		t.Fatalf("tier 1 should be healthy: %+v", h)
	}
}

func TestOfflineTierMaskedFromStatus(t *testing.T) {
	m := New(newStore(t), 0)
	for i := 0; i < 3; i++ {
		m.Observe(float64(i), 0, errBoom)
	}
	// offline at now=2 with the first probe due at 2.5: sample before it.
	sts := m.Status(2.1)
	if sts[0].Available {
		t.Fatal("offline tier must report Available=false")
	}
	if !sts[1].Available {
		t.Fatal("healthy tier must stay available")
	}
}

func TestRecoveryProbeAndHeal(t *testing.T) {
	m := New(newStore(t), 0)
	for i := 0; i < 3; i++ {
		m.Observe(0, 0, errBoom)
	}
	// Before the probe is due the tier stays masked.
	if sts := m.Status(0.1); sts[0].Available {
		t.Fatal("tier masked before probe")
	}
	// At the probe time the tier is exposed for one snapshot.
	if sts := m.Status(0.6); !sts[0].Available {
		t.Fatal("probe should expose the tier")
	}
	// A success heals it back to Healthy immediately.
	m.Observe(0.7, 0, nil)
	if h := m.Health()[0]; h.State != healthy || h.ErrStreak != 0 {
		t.Fatalf("after healing success: %+v", h)
	}
	if sts := m.Status(0.8); !sts[0].Available {
		t.Fatal("healed tier must be available")
	}
}

func TestFailedProbeBacksOff(t *testing.T) {
	m := New(newStore(t), 0)
	for i := 0; i < 3; i++ {
		m.Observe(0, 0, errBoom)
	}
	p0 := m.Health()[0].NextProbe // 0.5
	m.Status(p0)                  // probe granted
	m.Observe(p0, 0, errBoom)     // probe fails
	p1 := m.Health()[0].NextProbe
	if p1-p0 <= 0.5 {
		t.Fatalf("failed probe should double the interval: next=%v after %v", p1, p0)
	}
}

func TestSuccessFastPathNoTransition(t *testing.T) {
	m := New(newStore(t), 0)
	var events []Event
	m.SetEventSink(func(ev Event) { events = append(events, ev) })
	for i := 0; i < 100; i++ {
		m.Observe(float64(i), 0, nil)
	}
	if len(events) != 0 {
		t.Fatalf("healthy successes must not emit events: %+v", events)
	}
}

func TestObserveOutOfRangeTier(t *testing.T) {
	m := New(newStore(t), 0)
	m.Observe(0, -1, errBoom) // must not panic
	m.Observe(0, 99, errBoom)
	if h := m.Health(); len(h) != 2 {
		t.Fatalf("health len %d", len(h))
	}
}
