package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hcompress"
	"hcompress/internal/hcerr"
)

// newBackend builds a small real pipeline: the service tests exercise
// the tenancy layer end to end, not a mock.
func newBackend(t *testing.T) *hcompress.Client {
	t.Helper()
	c, err := hcompress.New(hcompress.Config{Tiers: []hcompress.TierSpec{
		{Name: "ram", CapacityBytes: 8 << 20, LatencySec: 1e-6, BandwidthBps: 6e9, Lanes: 4},
		{Name: "pfs", CapacityBytes: 1 << 30, LatencySec: 5e-3, BandwidthBps: 500e6, Lanes: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(newBackend(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// incompressible fills n bytes from an xorshift stream: no codec beats
// ~1.0 on it, so stored bytes track task bytes and quota arithmetic in
// tests stays predictable.
func incompressible(n int) []byte {
	buf := make([]byte, n)
	x := uint64(0x243f6a8885a308d3)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = byte(x)
	}
	return buf
}

// TestTenantNamespaceIsolation: two tenants use the same key; each
// reads back its own bytes, and a tenant that never wrote the key gets
// ErrNotFound — another tenant's data is unreachable by construction.
func TestTenantNamespaceIsolation(t *testing.T) {
	s := newServer(t, Config{})
	ctx := context.Background()
	dataA := []byte(strings.Repeat("tenant alpha block. ", 512))
	dataB := []byte(strings.Repeat("tenant beta block. ", 512))
	if _, err := s.Compress(ctx, "alpha", hcompress.Task{Key: "shared", Data: dataA}, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compress(ctx, "beta", hcompress.Task{Key: "shared", Data: dataB}, ""); err != nil {
		t.Fatal(err)
	}
	repA, err := s.Decompress(ctx, "alpha", "shared", "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repA.Data, dataA) {
		t.Fatal("tenant alpha read back wrong bytes")
	}
	repA.Release()
	repB, err := s.Decompress(ctx, "beta", "shared", "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repB.Data, dataB) {
		t.Fatal("tenant beta read back wrong bytes")
	}
	repB.Release()
	if _, err := s.Decompress(ctx, "gamma", "shared", ""); !errors.Is(err, hcompress.ErrNotFound) {
		t.Fatalf("tenant gamma reading a key it never wrote: want ErrNotFound, got %v", err)
	}
	// Deleting its own key must not touch the other tenant's.
	if err := s.Delete("alpha", "shared"); err != nil {
		t.Fatal(err)
	}
	if rep, err := s.Decompress(ctx, "beta", "shared", ""); err != nil {
		t.Fatalf("beta's key gone after alpha's delete: %v", err)
	} else {
		rep.Release()
	}
}

// TestQuotaEnforcement: a write that would exceed the tenant's byte
// quota fails with the typed ErrQuotaExceeded and stores nothing;
// deleting data releases quota and the write then succeeds.
func TestQuotaEnforcement(t *testing.T) {
	const taskBytes = 64 << 10
	s := newServer(t, Config{Tenants: []TenantSpec{
		{Name: "capped", QuotaBytes: taskBytes + taskBytes/2},
	}})
	ctx := context.Background()
	data := incompressible(taskBytes)
	if _, err := s.Compress(ctx, "capped", hcompress.Task{Key: "a", Data: data}, ""); err != nil {
		t.Fatal(err)
	}
	_, err := s.Compress(ctx, "capped", hcompress.Task{Key: "b", Data: data}, "")
	if !errors.Is(err, hcerr.ErrQuotaExceeded) {
		t.Fatalf("over-quota write: want ErrQuotaExceeded, got %v", err)
	}
	if !errors.Is(err, hcompress.ErrQuotaExceeded) {
		t.Fatal("quota error does not match the root-package re-export")
	}
	// Nothing stored for the rejected key.
	if _, err := s.Decompress(ctx, "capped", "b", ""); !errors.Is(err, hcompress.ErrNotFound) {
		t.Fatalf("rejected key readable: %v", err)
	}
	if st := s.TenantUsage("capped"); st.Keys != 1 {
		t.Fatalf("tenant accounting has %d keys, want 1", st.Keys)
	}
	// Rewriting the SAME key replaces it — no double-count rejection.
	if _, err := s.Compress(ctx, "capped", hcompress.Task{Key: "a", Data: data}, ""); err != nil {
		t.Fatalf("same-key rewrite within quota: %v", err)
	}
	// Delete releases the quota; the rejected write now fits.
	if err := s.Delete("capped", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compress(ctx, "capped", hcompress.Task{Key: "b", Data: data}, ""); err != nil {
		t.Fatalf("write after quota release: %v", err)
	}
}

// TestAdmissionThrottle: a zero-rate bucket with Burst tokens admits
// exactly Burst requests — deterministic, no wall-clock sleeps — and a
// positive rate refills on the injected clock.
func TestAdmissionThrottle(t *testing.T) {
	now := time.Unix(1000, 0)
	s := newServer(t, Config{
		Tenants: []TenantSpec{{Name: "bursty", RatePerSec: 1, Burst: 2}},
		now:     func() time.Time { return now },
	})
	ctx := context.Background()
	data := []byte(strings.Repeat("small block. ", 256))
	for i := 0; i < 2; i++ {
		if _, err := s.Compress(ctx, "bursty", hcompress.Task{Key: fmt.Sprintf("k%d", i), Data: data}, ""); err != nil {
			t.Fatalf("write %d within burst: %v", i, err)
		}
	}
	_, err := s.Compress(ctx, "bursty", hcompress.Task{Key: "k2", Data: data}, "")
	if !errors.Is(err, hcerr.ErrThrottled) {
		t.Fatalf("over-burst write: want ErrThrottled, got %v", err)
	}
	if !errors.Is(err, hcompress.ErrThrottled) {
		t.Fatal("throttle error does not match the root-package re-export")
	}
	// Refill at 1 token/s on the injected clock.
	now = now.Add(1 * time.Second)
	if _, err := s.Compress(ctx, "bursty", hcompress.Task{Key: "k2", Data: data}, ""); err != nil {
		t.Fatalf("write after refill: %v", err)
	}
	if _, err := s.Compress(ctx, "bursty", hcompress.Task{Key: "k3", Data: data}, ""); !errors.Is(err, hcerr.ErrThrottled) {
		t.Fatalf("bucket should hold exactly one refilled token, got %v", err)
	}
}

// TestStrictTenants: with StrictTenants, an unregistered tenant is
// rejected with ErrNotFound instead of being lazily created.
func TestStrictTenants(t *testing.T) {
	s := newServer(t, Config{
		StrictTenants: true,
		Tenants:       []TenantSpec{{Name: "known"}},
	})
	ctx := context.Background()
	data := []byte(strings.Repeat("x", 4096))
	if _, err := s.Compress(ctx, "known", hcompress.Task{Key: "k", Data: data}, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compress(ctx, "stranger", hcompress.Task{Key: "k", Data: data}, ""); !errors.Is(err, hcompress.ErrNotFound) {
		t.Fatalf("unknown tenant under StrictTenants: want ErrNotFound, got %v", err)
	}
}

// TestRequestValidation covers the cheap rejections: tenant names that
// could break namespacing, and unknown priority classes.
func TestRequestValidation(t *testing.T) {
	s := newServer(t, Config{})
	ctx := context.Background()
	data := []byte("payload")
	for _, name := range []string{"", "a/b", "a b", "dots..fine-but/not-slash"} {
		if _, err := s.Compress(ctx, name, hcompress.Task{Key: "k", Data: data}, ""); err == nil {
			t.Fatalf("tenant name %q accepted", name)
		}
	}
	if _, err := s.Compress(ctx, "ok", hcompress.Task{Key: "", Data: data}, ""); err == nil {
		t.Fatal("empty key accepted")
	}
	if _, err := s.Compress(ctx, "ok", hcompress.Task{Key: "k", Data: data}, "realtime"); err == nil {
		t.Fatal("unknown priority accepted")
	}
}

// TestRequestBodyLimit: a body one byte over maxRequestBody is refused
// with 413/too_large and stores nothing; a body exactly at the limit is
// served as before.
func TestRequestBodyLimit(t *testing.T) {
	s := newServer(t, Config{})
	h := s.Handler()
	post := func(key string, size int) (int, errorResponse) {
		// Whitespace pads the object before its closing brace, so the
		// decoder has to read all size bytes.
		head := `{"tenant":"t","key":"` + key + `","data":"AAAA"`
		body := io.MultiReader(strings.NewReader(head),
			io.LimitReader(spaces{}, int64(size-len(head)-1)), strings.NewReader("}"))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compress", body))
		var er errorResponse
		_ = json.Unmarshal(rec.Body.Bytes(), &er)
		return rec.Code, er
	}
	if code, er := post("over", maxRequestBody+1); code != http.StatusRequestEntityTooLarge || er.Code != "too_large" {
		t.Fatalf("limit+1: HTTP %d code %q, want 413 too_large", code, er.Code)
	}
	if _, err := s.Decompress(context.Background(), "t", "over", ""); !errors.Is(err, hcerr.ErrNotFound) {
		t.Fatalf("an over-limit request stored its task: %v", err)
	}
	if code, er := post("at", maxRequestBody); code != http.StatusOK {
		t.Fatalf("at the limit: HTTP %d code %q, want 200", code, er.Code)
	}
}

// spaces is an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// postJSON is the test HTTP client: marshal req, POST, decode into out,
// and return the status code.
func postJSON(t *testing.T, url string, req, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp.StatusCode
}

// TestHTTPRoundTrip drives the wire protocol over a loopback listener:
// per-tenant round trip, cross-tenant 404, quota 403, throttle 429,
// healthz, stat, and the merged /metrics exposition.
func TestHTTPRoundTrip(t *testing.T) {
	const taskBytes = 32 << 10
	s := newServer(t, Config{
		Tenants: []TenantSpec{
			{Name: "alpha"},
			{Name: "capped", QuotaBytes: taskBytes + taskBytes/2},
			{Name: "bursty", RatePerSec: 0.001, Burst: 1},
		},
		EnableTelemetry: true,
	})
	addr, shutdown, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown() })
	base := "http://" + addr

	data := incompressible(taskBytes)
	var cr CompressResponse
	if code := postJSON(t, base+"/v1/compress", CompressRequest{Tenant: "alpha", Key: "doc", Data: data}, &cr); code != http.StatusOK {
		t.Fatalf("compress: HTTP %d", code)
	}
	if cr.OriginalBytes != taskBytes || cr.StoredBytes <= 0 {
		t.Fatalf("compress response %+v", cr)
	}
	var dr DecompressResponse
	if code := postJSON(t, base+"/v1/decompress", DecompressRequest{Tenant: "alpha", Key: "doc"}, &dr); code != http.StatusOK {
		t.Fatalf("decompress: HTTP %d", code)
	}
	if !bytes.Equal(dr.Data, data) {
		t.Fatal("HTTP round trip corrupted payload")
	}

	// Cross-tenant read: 404 with the stable machine code.
	var er errorResponse
	if code := postJSON(t, base+"/v1/decompress", DecompressRequest{Tenant: "capped", Key: "doc"}, &er); code != http.StatusNotFound {
		t.Fatalf("cross-tenant read: HTTP %d, want 404", code)
	}
	if er.Code != "not_found" {
		t.Fatalf("cross-tenant read: code %q, want not_found", er.Code)
	}

	// Quota: first write fits, second rejects with 403/quota_exceeded.
	if code := postJSON(t, base+"/v1/compress", CompressRequest{Tenant: "capped", Key: "a", Data: data}, &cr); code != http.StatusOK {
		t.Fatalf("capped first write: HTTP %d", code)
	}
	if code := postJSON(t, base+"/v1/compress", CompressRequest{Tenant: "capped", Key: "b", Data: data}, &er); code != http.StatusForbidden {
		t.Fatalf("over-quota write: HTTP %d, want 403", code)
	}
	if er.Code != "quota_exceeded" {
		t.Fatalf("over-quota write: code %q, want quota_exceeded", er.Code)
	}

	// Admission: one-token bucket admits one request, then 429/throttled.
	if code := postJSON(t, base+"/v1/compress", CompressRequest{Tenant: "bursty", Key: "a", Data: data}, &cr); code != http.StatusOK {
		t.Fatalf("bursty first write: HTTP %d", code)
	}
	if code := postJSON(t, base+"/v1/compress", CompressRequest{Tenant: "bursty", Key: "b", Data: data}, &er); code != http.StatusTooManyRequests {
		t.Fatalf("throttled write: HTTP %d, want 429", code)
	}
	if er.Code != "throttled" {
		t.Fatalf("throttled write: code %q, want throttled", er.Code)
	}

	// Delete, then the key is gone.
	var del struct{}
	if code := postJSON(t, base+"/v1/delete", deleteRequest{Tenant: "alpha", Key: "doc"}, &del); code != http.StatusOK {
		t.Fatalf("delete: HTTP %d", code)
	}
	if code := postJSON(t, base+"/v1/decompress", DecompressRequest{Tenant: "alpha", Key: "doc"}, &er); code != http.StatusNotFound {
		t.Fatalf("read after delete: HTTP %d, want 404", code)
	}

	// Health and stat.
	hres, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", hres.StatusCode)
	}
	sres, err := http.Get(base + "/v1/stat")
	if err != nil {
		t.Fatal(err)
	}
	var stat statResponse
	err = json.NewDecoder(sres.Body).Decode(&stat)
	sres.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stat.Shards != 1 || len(stat.Tenants) != 3 || stat.Stats == nil {
		t.Fatalf("stat response %+v", stat)
	}

	// Merged metrics: the service's tenant-labeled series are present.
	mres, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := io.ReadAll(mres.Body)
	mres.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`hc_service_requests_total{tenant="alpha"}`,
		`hc_service_rejects_total{tenant="capped",reason="quota"}`,
		`hc_service_rejects_total{tenant="bursty",reason="throttle"}`,
		"hc_service_request_seconds",
	} {
		if !strings.Contains(string(exp), want) {
			t.Errorf("metrics exposition missing %s", want)
		}
	}
}
