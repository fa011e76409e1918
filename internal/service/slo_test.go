package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"hcompress"
)

// TestSLOEndpointAndRequestMetrics drives the wire protocol and asserts
// the observability surfaces the PR promises: /v1/slo reports populated
// per-(tenant, op) series, /metrics carries the {op, tenant}-labeled
// request series and the hc_slo_* family, and a caller-supplied
// X-Request-Id propagates end to end into the backend's telemetry.
func TestSLOEndpointAndRequestMetrics(t *testing.T) {
	backend, err := hcompress.New(hcompress.Config{
		Tiers: []hcompress.TierSpec{
			{Name: "ram", CapacityBytes: 8 << 20, LatencySec: 1e-6, BandwidthBps: 6e9, Lanes: 4},
			{Name: "pfs", CapacityBytes: 1 << 30, LatencySec: 5e-3, BandwidthBps: 500e6, Lanes: 4},
		},
		SlowOpSampleEvery: 1, // record every backend op: the propagation probe
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { backend.Close() })
	s, err := New(backend, Config{EnableTelemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	addr, shutdown, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown() })
	base := "http://" + addr
	data := []byte(strings.Repeat("slo measured block. ", 1024))

	// One write carrying a caller-chosen request ID.
	body, err := json.Marshal(CompressRequest{Tenant: "alpha", Key: "doc", Data: data})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", base+"/v1/compress", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "req-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compress with X-Request-Id: HTTP %d", resp.StatusCode)
	}

	// More traffic without the header: a second write, a good read, and
	// a not-found read (a served failure, counted against the SLO).
	var cr CompressResponse
	if code := postJSON(t, base+"/v1/compress", CompressRequest{Tenant: "alpha", Key: "doc2", Data: data}, &cr); code != http.StatusOK {
		t.Fatalf("compress doc2: HTTP %d", code)
	}
	var dr DecompressResponse
	if code := postJSON(t, base+"/v1/decompress", DecompressRequest{Tenant: "alpha", Key: "doc"}, &dr); code != http.StatusOK {
		t.Fatalf("decompress doc: HTTP %d", code)
	}
	var er errorResponse
	if code := postJSON(t, base+"/v1/decompress", DecompressRequest{Tenant: "alpha", Key: "ghost"}, &er); code != http.StatusNotFound {
		t.Fatalf("decompress ghost: HTTP %d, want 404", code)
	}

	// The SLO endpoint reports populated series per (tenant, op).
	sres, err := http.Get(base + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	var slo sloResponse
	err = json.NewDecoder(sres.Body).Decode(&slo)
	sres.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	byClass := map[string]int64{}
	for _, st := range slo.SLOs {
		if st.Tenant != "alpha" {
			t.Errorf("unexpected SLO tenant %q", st.Tenant)
		}
		if st.Objective <= 0 || st.Objective >= 1 || st.WindowSeconds <= 0 {
			t.Errorf("SLO series %s/%s missing configured objective: %+v", st.Tenant, st.Class, st)
		}
		if st.GoodRatio < 0 || st.GoodRatio > 1 || st.BurnRate < 0 {
			t.Errorf("SLO series %s/%s out-of-range derived values: %+v", st.Tenant, st.Class, st)
		}
		byClass[st.Class] = st.Total
	}
	if byClass["compress"] != 2 {
		t.Errorf("compress SLO total %d, want 2", byClass["compress"])
	}
	// Both the served read and the not-found failure count.
	if byClass["decompress"] != 2 {
		t.Errorf("decompress SLO total %d, want 2", byClass["decompress"])
	}

	// The merged exposition carries the labeled request series and the
	// hc_slo_* family.
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
		`hc_service_request_seconds_count{op="compress",tenant="alpha"} 2`,
		`hc_service_request_seconds_count{op="decompress",tenant="alpha"} 1`,
		`hc_service_request_errors_total{op="decompress",tenant="alpha"} 1`,
		`hc_slo_requests_total{tenant="alpha",class="compress"} 2`,
		`hc_slo_good_total{tenant="alpha",class="compress"}`,
		`hc_slo_burn_rate{tenant="alpha",class="decompress"}`,
	} {
		if !strings.Contains(string(exp), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}

	// End-to-end identity propagation: the backend's slow-op log (sampling
	// every op) saw the caller's request ID and the tenant; ops without
	// the header got service-assigned svc-N identities.
	var tagged, assigned bool
	for _, op := range backend.SlowOps() {
		if op.Tenant != "alpha" {
			t.Errorf("backend op %s/%s missing tenant label: %+v", op.Op, op.Key, op)
		}
		switch {
		case op.Trace == "req-abc-123":
			tagged = true
			if op.Op != "compress" || op.Key != "alpha/doc" {
				t.Errorf("X-Request-Id landed on the wrong op: %+v", op)
			}
		case strings.HasPrefix(op.Trace, "svc-"):
			assigned = true
		default:
			t.Errorf("backend op with unexpected trace ID %q", op.Trace)
		}
	}
	if !tagged {
		t.Error("X-Request-Id did not propagate to the backend's telemetry")
	}
	if !assigned {
		t.Error("requests without X-Request-Id did not get service-assigned IDs")
	}
}
