// Package monitor implements the System Monitor (SM): a cached view of
// per-tier availability, load, and remaining capacity (§IV-E). Where the
// paper's SM shells out to du and iostat from a background thread, this
// one samples the simulated Storage Hardware Interface — the refresh
// cadence is preserved so the HCDP engine sees the same slightly-stale
// information a real deployment would.
//
// Beyond occupancy, the monitor tracks per-tier *health*: a three-state
// machine (healthy → degraded → offline) driven by the outcomes the
// store observes, with exponential-backoff recovery probing. Offline
// tiers are masked out of the Status snapshots the HCDP engine plans
// against, and periodically re-exposed for one refresh (a probe) so a
// recovered tier is automatically reused.
package monitor

import (
	"sync"
	"sync/atomic"

	"hcompress/internal/store"
	"hcompress/internal/telemetry"
)

// HealthState is one tier's position in the health state machine.
type HealthState uint8

const (
	// healthy: no outstanding errors.
	healthy HealthState = iota
	// degraded: recent errors below the offline threshold; the tier is
	// still offered for placement but callers should expect retries.
	degraded
	// offline: consecutive errors reached the threshold; the tier is
	// masked from planning except for periodic recovery probes.
	offline
)

// String names the state for reports and metrics.
func (s HealthState) String() string {
	switch s {
	case healthy:
		return "healthy"
	case degraded:
		return "degraded"
	case offline:
		return "offline"
	}
	return "unknown"
}

// TierHealth is the public snapshot of one tier's health.
type TierHealth struct {
	Name           string
	State          HealthState
	ErrStreak      int     // consecutive observed errors
	LastTransition float64 // virtual time of the last state change
	NextProbe      float64 // virtual time of the next recovery probe (offline only)
}

// Event records one health transition, for audit logs and traces.
type Event struct {
	Tier   int
	Name   string
	From   HealthState
	To     HealthState
	VTime  float64
	Streak int
}

// tierHealth is the internal per-tier machine state, guarded by
// SystemMonitor.mu. clean is the lock-free fast path: true exactly when
// the tier is Healthy with a zero streak, so the store's success
// callback on every operation costs one atomic load in steady state.
type tierHealth struct {
	state          HealthState
	streak         int
	lastTransition float64
	nextProbe      float64
	probeN         int // failed probes since going offline (backoff exponent)
	clean          atomic.Bool
}

// Health-machine policy: offlineAfter consecutive errors take a tier
// offline; the first recovery probe fires probeBase virtual seconds
// later, doubling per failed probe up to probeBase * probeCapFactor.
const (
	offlineAfter   = 3
	probeBase      = 0.5
	probeCapFactor = 64
)

// SystemMonitor caches tier status snapshots, refreshing at a configured
// virtual-time interval. It is safe for concurrent use: readers of a fresh
// cache share a read lock (concurrent planners never serialize on the
// monitor), and a refresh swaps in a new snapshot slice rather than
// mutating the one in-flight planners may still hold.
type SystemMonitor struct {
	mu          sync.RWMutex
	st          *store.Store
	interval    float64 // seconds of virtual time between refreshes
	lastRefresh float64
	cached      []store.TierStatus
	cachedGen   uint64 // the store's Gen read just before cached was sampled
	probed      bool   // cached exposes an offline tier for its recovery probe
	refreshes   int

	health    []tierHealth
	eventSink func(Event) // construction-time; called outside mu

	tmRefreshes *telemetry.Counter // nil when telemetry is off
	tmForced    *telemetry.Counter
	tmHealth    []*telemetry.Gauge // per-tier health state (0/1/2)
}

// SetTelemetry registers the monitor's instruments on reg. Must be
// called before the monitor is shared between goroutines; a nil registry
// leaves telemetry off.
func (m *SystemMonitor) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	m.tmRefreshes = reg.Counter("hc_monitor_refreshes_total", "tier status samples taken from the store")
	m.tmForced = reg.Counter("hc_monitor_forced_refreshes_total", "cache invalidations after failed placements")
	hier := m.st.Hierarchy()
	m.tmHealth = make([]*telemetry.Gauge, hier.Len())
	for i, spec := range hier.Tiers {
		m.tmHealth[i] = reg.Gauge("hc_tier_health", "tier health state (0 healthy, 1 degraded, 2 offline)",
			telemetry.L("tier", spec.Name))
	}
}

// SetEventSink installs the health-transition observer (audit records,
// traces). Construction-time only; the sink is invoked outside the
// monitor lock.
func (m *SystemMonitor) SetEventSink(fn func(Event)) { m.eventSink = fn }

// New creates a monitor over st that refreshes its cache every interval
// virtual seconds. interval 0 means "always fresh".
func New(st *store.Store, interval float64) *SystemMonitor {
	m := &SystemMonitor{
		st: st, interval: interval, lastRefresh: -1,
		health: make([]tierHealth, st.Hierarchy().Len()),
	}
	for i := range m.health {
		m.health[i].clean.Store(true)
	}
	return m
}

// fresh reports whether the cached snapshot may be served at now: within
// the refresh interval, or at the snapshot's own instant when the store
// has not changed since, where a new sample would be identical — unless
// the snapshot was a probe, which exposes an offline tier to one refresh
// only.
func (m *SystemMonitor) fresh(now float64) bool {
	if m.lastRefresh < 0 {
		return false
	}
	return now-m.lastRefresh < m.interval ||
		now == m.lastRefresh && !m.probed && m.st.Gen() == m.cachedGen
}

// Status returns tier status as of virtual time now, refreshing the cache
// if it is older than the interval. The returned slice is a snapshot
// shared between callers; callers must not mutate it. Offline tiers are
// reported Available=false — masked from placement — except when their
// recovery probe is due, in which case the tier is exposed for this one
// refresh and the next probe is pushed out by the current backoff.
func (m *SystemMonitor) Status(now float64) []store.TierStatus {
	m.mu.RLock()
	if m.fresh(now) {
		cached := m.cached
		m.mu.RUnlock()
		return cached
	}
	m.mu.RUnlock()

	m.mu.Lock()
	if m.fresh(now) { // another planner refreshed while we waited
		cached := m.cached
		m.mu.Unlock()
		return cached
	}
	gen := m.st.Gen()
	sts := m.st.Status(now)
	probed := false
	for i := range sts {
		h := &m.health[i]
		if h.state != offline {
			continue
		}
		if now >= h.nextProbe {
			// Probe: expose the tier for this snapshot so one plan may
			// target it; the placement outcome (Observe) decides whether
			// it heals or backs off further.
			h.nextProbe = now + m.probeBackoff(h.probeN)
			probed = true
		} else {
			sts[i].Available = false
		}
	}
	m.cached, m.cachedGen, m.probed = sts, gen, probed
	m.lastRefresh = now
	m.refreshes++
	m.tmRefreshes.Inc()
	m.mu.Unlock()
	return sts
}

// probeBackoff is the offline-tier probe interval after n failed probes:
// probeBase * 2^n, capped.
func (m *SystemMonitor) probeBackoff(n int) float64 {
	b := probeBase
	for i := 0; i < n && b < probeBase*probeCapFactor; i++ {
		b *= 2
	}
	if max := probeBase * probeCapFactor; b > max {
		b = max
	}
	return b
}

// Observe feeds one store outcome into the health machine (the store's
// health sink): err == nil marks a success, anything else an observed
// fault. Successes on a degraded or offline tier heal it immediately —
// the decay half of probe-based recovery — and transitions invalidate
// the status cache so the next plan sees the new availability.
func (m *SystemMonitor) Observe(now float64, tier int, err error) {
	if tier < 0 || tier >= len(m.health) {
		return
	}
	h := &m.health[tier]
	if err == nil {
		if h.clean.Load() {
			return // steady state: one atomic load per store op
		}
		m.mu.Lock()
		if h.state == healthy && h.streak == 0 {
			m.mu.Unlock()
			return
		}
		ev := Event{Tier: tier, Name: m.tierName(tier), From: h.state, To: healthy, VTime: now}
		h.state = healthy
		h.streak = 0
		h.probeN = 0
		h.nextProbe = 0
		h.lastTransition = now
		h.clean.Store(true)
		m.lastRefresh = -1 // re-expose the tier on the next refresh
		m.setHealthGauge(tier, healthy)
		m.mu.Unlock()
		m.emit(ev)
		return
	}

	m.mu.Lock()
	h.clean.Store(false)
	h.streak++
	prev := h.state
	if h.streak >= offlineAfter {
		h.state = offline
		if prev == offline {
			// A failed probe (or late straggler): back the next probe off.
			if h.probeN < 62 {
				h.probeN++
			}
		}
		h.nextProbe = now + m.probeBackoff(h.probeN)
	} else {
		h.state = degraded
	}
	var ev Event
	transitioned := h.state != prev
	if transitioned {
		h.lastTransition = now
		m.lastRefresh = -1 // mask the tier on the next refresh
		m.setHealthGauge(tier, h.state)
		ev = Event{Tier: tier, Name: m.tierName(tier), From: prev, To: h.state, VTime: now, Streak: h.streak}
	}
	m.mu.Unlock()
	if transitioned {
		m.emit(ev)
	}
}

func (m *SystemMonitor) tierName(tier int) string {
	return m.st.Hierarchy().Tiers[tier].Name
}

func (m *SystemMonitor) setHealthGauge(tier int, s HealthState) {
	if m.tmHealth != nil {
		m.tmHealth[tier].Set(float64(s))
	}
}

func (m *SystemMonitor) emit(ev Event) {
	if m.eventSink != nil {
		m.eventSink(ev)
	}
}

// Health snapshots every tier's health state.
func (m *SystemMonitor) Health() []TierHealth {
	hier := m.st.Hierarchy()
	out := make([]TierHealth, len(m.health))
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i := range m.health {
		h := &m.health[i]
		out[i] = TierHealth{
			Name:           hier.Tiers[i].Name,
			State:          h.state,
			ErrStreak:      h.streak,
			LastTransition: h.lastTransition,
			NextProbe:      h.nextProbe,
		}
	}
	return out
}

// ForceRefresh invalidates the cache so the next Status is fresh — used
// after placements that the engine itself performed (it knows the state
// changed and must not plan against stale capacity). Planners holding the
// previous snapshot keep a consistent (if stale) view; the placement path
// re-checks true capacity.
func (m *SystemMonitor) ForceRefresh() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lastRefresh = -1
	m.tmForced.Inc()
}

// Refreshes reports how many times the underlying store was sampled.
func (m *SystemMonitor) Refreshes() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.refreshes
}

// Store exposes the monitored store (the engine needs it for placement).
func (m *SystemMonitor) Store() *store.Store { return m.st }
