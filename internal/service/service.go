// Package service is the multi-tenant network front-end: an HTTP/JSON
// compress/decompress service layered over a key-routed Router. It adds
// the three things a shared deployment needs that the library layer
// deliberately does not know about:
//
//   - Tenancy: every request names a tenant; keys are tenant-prefixed
//     before they reach the router, so namespaces are disjoint by
//     construction — tenant A cannot name, read, or delete tenant B's
//     data.
//   - Quotas and admission: per-tenant stored-byte quotas (typed
//     hcerr.ErrQuotaExceeded, nothing stored on rejection) and
//     token-bucket request admission (typed hcerr.ErrThrottled, clears
//     as tokens refill).
//   - Priority classes: decompress requests run at fanout.Interactive
//     and compress requests at fanout.Batch, so latency-sensitive reads
//     are claimed ahead of bulk writes in every shard's shared worker
//     pool. A request may override its class explicitly.
//
// The Server is usable both in-process (Compress/Decompress/Delete
// methods with typed errors) and over HTTP (Handler); bench/'s service
// probe drives the latter over loopback.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hcompress"
	"hcompress/internal/fanout"
	"hcompress/internal/hcerr"
	"hcompress/internal/telemetry"
)

// Backend is the slice of the Router/Client surface the service drives.
// *hcompress.Router implements it directly; *hcompress.Client does too
// (through its embedded shard), so tests can serve a single shard.
type Backend interface {
	CompressContext(ctx context.Context, t hcompress.Task) (*hcompress.Report, error)
	DecompressContext(ctx context.Context, key string) (*hcompress.Report, error)
	Delete(key string) error
	Status() []hcompress.TierStatusReport
	Health() []hcompress.TierHealthReport
	Stats() hcompress.Stats
	WriteMetrics(w io.Writer) error
}

// TenantSpec declares one tenant's limits.
type TenantSpec struct {
	// Name identifies the tenant: [A-Za-z0-9._-]+, no '/' (the namespace
	// separator).
	Name string
	// QuotaBytes caps the tenant's aggregate stored bytes. 0 inherits
	// Config.DefaultQuotaBytes; negative means unlimited.
	QuotaBytes int64
	// RatePerSec refills the tenant's admission bucket. 0 inherits
	// Config.DefaultRatePerSec.
	RatePerSec float64
	// Burst is the admission bucket capacity. 0 inherits
	// Config.DefaultBurst; negative disables admission control for the
	// tenant.
	Burst int
}

// Config configures the service layer.
type Config struct {
	// Tenants pre-registers tenants with explicit limits.
	Tenants []TenantSpec
	// DefaultQuotaBytes is the stored-byte quota for tenants that do not
	// set one (0 = unlimited).
	DefaultQuotaBytes int64
	// DefaultRatePerSec and DefaultBurst shape the default admission
	// bucket. Burst 0 disables admission control by default.
	DefaultRatePerSec float64
	DefaultBurst      int
	// StrictTenants rejects requests from tenants that were not
	// pre-registered; off (the default), unknown tenants are registered
	// on first use with the default limits.
	StrictTenants bool
	// EnableTelemetry registers per-tenant request/reject/byte series on
	// the service's own registry, served by /metrics alongside the
	// backend's merged exposition, and turns on the SLO engine behind
	// GET /v1/slo and the hc_slo_* series.
	EnableTelemetry bool
	// SLOObjective is the targeted fraction of good requests per tenant
	// and op class (default 0.999). A request is good when it succeeded
	// and finished within SLOLatencyTarget.
	SLOObjective float64
	// SLOLatencyTarget is the per-request latency goal the SLO engine
	// judges requests against (default 250ms).
	SLOLatencyTarget time.Duration
	// SLOWindow is the rolling window the burn rate is computed over
	// (default 60s).
	SLOWindow time.Duration
	// now overrides the admission clock (tests only).
	now func() time.Time
}

// tenant is one tenant's accounting: quota, token bucket, instruments.
// Each tenant has its own lock; the server's map lock is never held
// while a tenant's lock is, and no code path takes two tenants' locks —
// the same single-lock-at-a-time rule the router follows across shards.
type tenant struct {
	mu     sync.Mutex
	spec   TenantSpec
	used   int64
	perKey map[string]int64 // stored bytes per full (prefixed) key
	tokens float64
	last   time.Time

	ops        *telemetry.Counter
	rejections map[string]*telemetry.Counter
	usedGauge  *telemetry.Gauge
	// Per-op, tenant-labeled request series: every latency and error
	// sample carries {op, tenant} so one tenant's burn cannot hide in
	// another's aggregate.
	reqSecs map[string]*telemetry.Histogram // hc_service_request_seconds{op,tenant}
	reqErrs map[string]*telemetry.Counter   // hc_service_request_errors_total{op,tenant}
}

// Server is the multi-tenant front-end over a Backend.
type Server struct {
	backend Backend
	cfg     Config
	reg     *telemetry.Registry
	slo     *telemetry.SLOEngine

	mu      sync.Mutex
	tenants map[string]*tenant

	// reqSeq assigns request IDs to requests that did not arrive with one
	// (X-Request-Id); the ID rides the context into every shard's span
	// tree and slow-op record.
	reqSeq atomic.Uint64
}

// New builds a Server over backend. The Backend is not owned: callers
// still Close the router themselves.
func New(backend Backend, cfg Config) (*Server, error) {
	if cfg.now == nil {
		cfg.now = time.Now
	}
	s := &Server{
		backend: backend,
		cfg:     cfg,
		tenants: make(map[string]*tenant),
	}
	if cfg.EnableTelemetry {
		s.reg = telemetry.New()
		s.slo = telemetry.NewSLOEngine(telemetry.SLOOptions{
			Objective:     cfg.SLOObjective,
			LatencyTarget: cfg.SLOLatencyTarget,
			Window:        cfg.SLOWindow,
			Now:           cfg.now,
		}, s.reg)
	}
	for _, spec := range cfg.Tenants {
		if _, err := s.registerTenant(spec); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// validTenant reports whether name is a legal tenant name.
func validTenant(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

func (s *Server) registerTenant(spec TenantSpec) (*tenant, error) {
	if !validTenant(spec.Name) {
		return nil, fmt.Errorf("service: invalid tenant name %q", spec.Name)
	}
	if spec.QuotaBytes == 0 {
		spec.QuotaBytes = s.cfg.DefaultQuotaBytes
	}
	if spec.RatePerSec == 0 {
		spec.RatePerSec = s.cfg.DefaultRatePerSec
	}
	if spec.Burst == 0 {
		spec.Burst = s.cfg.DefaultBurst
	}
	t := &tenant{
		spec:   spec,
		perKey: make(map[string]int64),
		tokens: float64(spec.Burst),
		last:   s.cfg.now(),
	}
	if s.reg != nil {
		l := telemetry.L("tenant", spec.Name)
		t.ops = s.reg.Counter("hc_service_requests_total", "service requests admitted", l)
		t.rejections = map[string]*telemetry.Counter{
			"quota":    s.reg.Counter("hc_service_rejects_total", "service requests rejected", l, telemetry.L("reason", "quota")),
			"throttle": s.reg.Counter("hc_service_rejects_total", "service requests rejected", l, telemetry.L("reason", "throttle")),
		}
		t.usedGauge = s.reg.Gauge("hc_service_tenant_used_bytes", "stored bytes accounted to the tenant", l)
		t.reqSecs = make(map[string]*telemetry.Histogram, 3)
		t.reqErrs = make(map[string]*telemetry.Counter, 3)
		for _, op := range []string{"compress", "decompress", "delete"} {
			lo := telemetry.L("op", op)
			t.reqSecs[op] = s.reg.Histogram("hc_service_request_seconds",
				"service request wall latency", telemetry.SecondsBuckets, lo, l)
			t.reqErrs[op] = s.reg.Counter("hc_service_request_errors_total",
				"service requests that failed after admission", lo, l)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.tenants[spec.Name]; ok {
		return existing, nil
	}
	s.tenants[spec.Name] = t
	return t, nil
}

// tenantFor resolves (or, unless StrictTenants, lazily registers) the
// tenant. The map lock is released before any tenant lock is taken.
func (s *Server) tenantFor(name string) (*tenant, error) {
	s.mu.Lock()
	t, ok := s.tenants[name]
	s.mu.Unlock()
	if ok {
		return t, nil
	}
	if s.cfg.StrictTenants {
		return nil, fmt.Errorf("service: unknown tenant %q: %w", name, hcerr.ErrNotFound)
	}
	return s.registerTenant(TenantSpec{Name: name})
}

// admit charges one request token, refilling by elapsed wall time. A
// resolved Burst <= 0 means admission control is off for the tenant
// (the zero-value Config admits everything); a positive Burst with
// RatePerSec 0 is a fixed allowance — deterministic for tests.
func (t *tenant) admit(now time.Time) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spec.Burst <= 0 {
		return nil
	}
	if dt := now.Sub(t.last).Seconds(); dt > 0 {
		t.tokens += dt * t.spec.RatePerSec
		if max := float64(t.spec.Burst); t.tokens > max {
			t.tokens = max
		}
		t.last = now
	}
	if t.tokens < 1 {
		t.rejections["throttle"].Inc()
		return fmt.Errorf("service: tenant %q: %w", t.spec.Name, hcerr.ErrThrottled)
	}
	t.tokens--
	t.ops.Inc()
	return nil
}

// reserve rejects a write that would push the tenant past its quota.
// The check uses the task's uncompressed size (stored bytes are almost
// always smaller); the accounting settles to actual stored bytes in
// commit. Nothing is reserved on rejection.
func (t *tenant) reserve(fullKey string, incoming int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	quota := t.spec.QuotaBytes
	if quota <= 0 {
		return nil
	}
	projected := t.used - t.perKey[fullKey] + incoming
	if projected > quota {
		t.rejections["quota"].Inc()
		return fmt.Errorf("service: tenant %q: %d + %d bytes over quota %d: %w",
			t.spec.Name, t.used, incoming, quota, hcerr.ErrQuotaExceeded)
	}
	return nil
}

// commit settles a successful write's accounting to actual stored bytes
// (replacing any previous version of the key).
func (t *tenant) commit(fullKey string, stored int64) {
	t.mu.Lock()
	t.used += stored - t.perKey[fullKey]
	t.perKey[fullKey] = stored
	used := t.used
	t.mu.Unlock()
	t.usedGauge.Set(float64(used))
}

// forget releases a deleted key's accounting.
func (t *tenant) forget(fullKey string) {
	t.mu.Lock()
	t.used -= t.perKey[fullKey]
	delete(t.perKey, fullKey)
	used := t.used
	t.mu.Unlock()
	t.usedGauge.Set(float64(used))
}

// fullKey prefixes key with its tenant namespace. Tenant names cannot
// contain '/', so prefixes never collide across tenants.
func fullKey(tenant, key string) string { return tenant + "/" + key }

// classFor maps a request priority string to a pool class: "" defaults
// per-operation (reads Interactive, writes Batch).
func classFor(priority string, def fanout.Class) (fanout.Class, error) {
	switch priority {
	case "":
		return def, nil
	case "interactive":
		return fanout.Interactive, nil
	case "batch":
		return fanout.Batch, nil
	default:
		return def, fmt.Errorf("service: unknown priority %q", priority)
	}
}

// reqCtx stamps ctx with the request identity the shards propagate into
// span trees and slow-op records: the request ID that arrived with the
// request (X-Request-Id, already in ctx) or a service-assigned one, the
// tenant, and the resolved scheduling class.
func (s *Server) reqCtx(ctx context.Context, tenantName string, cls fanout.Class) context.Context {
	ri := telemetry.ReqOf(ctx)
	if ri.ID == "" {
		ri.ID = "svc-" + strconv.FormatUint(s.reqSeq.Add(1), 10)
	}
	ri.Tenant = tenantName
	if cls == fanout.Batch {
		ri.Class = "batch"
	} else {
		ri.Class = "interactive"
	}
	return telemetry.WithReq(fanout.WithClass(ctx, cls), ri)
}

// observe settles one served request's accounting: the tenant-labeled
// latency histogram or error counter, and the SLO record. Policy rejects
// (throttle, quota) never reach here — the SLO measures what the service
// actually attempted to serve, not what it turned away by design.
func (s *Server) observe(tn *tenant, op string, start time.Time, reqErr error) {
	if s.reg == nil {
		return
	}
	lat := time.Since(start)
	if reqErr != nil {
		tn.reqErrs[op].Inc()
	} else {
		tn.reqSecs[op].Observe(lat.Seconds())
	}
	s.slo.Record(tn.spec.Name, op, lat, reqErr != nil)
}

// SLOReport returns every (tenant, op) series' rolling-window SLO status
// and refreshes the hc_slo_* gauges. Empty unless EnableTelemetry.
func (s *Server) SLOReport() []telemetry.SLOStatus {
	return s.slo.Report()
}

// Compress admits, quota-checks, namespaces, and executes one tenant
// write at Batch priority (unless overridden). Typed failures:
// ErrThrottled, ErrQuotaExceeded, plus everything the library returns.
func (s *Server) Compress(ctx context.Context, tenantName string, t hcompress.Task, priority string) (*hcompress.Report, error) {
	start := time.Now()
	cls, err := classFor(priority, fanout.Batch)
	if err != nil {
		return nil, err
	}
	if !validTenant(tenantName) {
		return nil, fmt.Errorf("service: invalid tenant name %q", tenantName)
	}
	if t.Key == "" {
		return nil, errors.New("service: task key required")
	}
	tn, err := s.tenantFor(tenantName)
	if err != nil {
		return nil, err
	}
	if err := tn.admit(s.cfg.now()); err != nil {
		return nil, err
	}
	fk := fullKey(tenantName, t.Key)
	if err := tn.reserve(fk, int64(len(t.Data))); err != nil {
		return nil, err
	}
	t.Key = fk
	rep, err := s.backend.CompressContext(s.reqCtx(ctx, tenantName, cls), t)
	s.observe(tn, "compress", start, err)
	if err != nil {
		return nil, err
	}
	tn.commit(fk, rep.StoredBytes)
	return rep, nil
}

// Decompress admits and executes one tenant read at Interactive
// priority (unless overridden). A key the tenant never wrote — including
// another tenant's key — fails with ErrNotFound.
func (s *Server) Decompress(ctx context.Context, tenantName, key, priority string) (*hcompress.Report, error) {
	start := time.Now()
	cls, err := classFor(priority, fanout.Interactive)
	if err != nil {
		return nil, err
	}
	if !validTenant(tenantName) {
		return nil, fmt.Errorf("service: invalid tenant name %q", tenantName)
	}
	tn, err := s.tenantFor(tenantName)
	if err != nil {
		return nil, err
	}
	if err := tn.admit(s.cfg.now()); err != nil {
		return nil, err
	}
	rep, err := s.backend.DecompressContext(s.reqCtx(ctx, tenantName, cls), fullKey(tenantName, key))
	s.observe(tn, "decompress", start, err)
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// Delete removes a tenant's key and releases its quota accounting.
func (s *Server) Delete(tenantName, key string) error {
	start := time.Now()
	if !validTenant(tenantName) {
		return fmt.Errorf("service: invalid tenant name %q", tenantName)
	}
	tn, err := s.tenantFor(tenantName)
	if err != nil {
		return err
	}
	if err := tn.admit(s.cfg.now()); err != nil {
		return err
	}
	fk := fullKey(tenantName, key)
	err = s.backend.Delete(fk)
	s.observe(tn, "delete", start, err)
	if err != nil {
		return err
	}
	tn.forget(fk)
	return nil
}

// TenantStat is one tenant's accounting snapshot.
type TenantStat struct {
	Name       string `json:"tenant"`
	UsedBytes  int64  `json:"usedBytes"`
	QuotaBytes int64  `json:"quotaBytes"` // <= 0 means unlimited
	Keys       int    `json:"keys"`
}

// TenantUsage snapshots one tenant's accounting (zero value if unknown).
func (s *Server) TenantUsage(name string) TenantStat {
	s.mu.Lock()
	t, ok := s.tenants[name]
	s.mu.Unlock()
	if !ok {
		return TenantStat{Name: name}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	quota := t.spec.QuotaBytes
	if quota < 0 {
		quota = 0
	}
	return TenantStat{Name: name, UsedBytes: t.used, QuotaBytes: quota, Keys: len(t.perKey)}
}

// Tenants snapshots every registered tenant (unordered; callers sort if
// they care).
func (s *Server) Tenants() []TenantStat {
	s.mu.Lock()
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	s.mu.Unlock()
	out := make([]TenantStat, 0, len(names))
	for _, name := range names {
		out = append(out, s.TenantUsage(name))
	}
	return out
}
