package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"time"

	"hcompress"
	"hcompress/internal/hcerr"
	"hcompress/internal/telemetry"
)

// The HTTP/JSON protocol. Payload bytes travel base64-encoded inside
// JSON ([]byte marshalling), which keeps the protocol one-format and
// curl-friendly; a binary framing can ride alongside later without
// disturbing these handlers.

// CompressRequest is the POST /v1/compress body.
type CompressRequest struct {
	Tenant string `json:"tenant"`
	Key    string `json:"key"`
	Data   []byte `json:"data"` // base64 in JSON
	// Type/Dist optionally pre-declare the payload (the analyzer's
	// self-described fast path); Priority optionally overrides the
	// write's default "batch" scheduling class.
	Type     string `json:"type,omitempty"`
	Dist     string `json:"dist,omitempty"`
	Priority string `json:"priority,omitempty"`
}

// CompressResponse is the POST /v1/compress reply.
type CompressResponse struct {
	Key            string  `json:"key"`
	OriginalBytes  int64   `json:"originalBytes"`
	StoredBytes    int64   `json:"storedBytes"`
	Ratio          float64 `json:"ratio"`
	VirtualSeconds float64 `json:"virtualSeconds"`
	Shard          int     `json:"shard"`
	Degraded       bool    `json:"degraded,omitempty"`
}

// DecompressRequest is the POST /v1/decompress body.
type DecompressRequest struct {
	Tenant   string `json:"tenant"`
	Key      string `json:"key"`
	Priority string `json:"priority,omitempty"`
}

// DecompressResponse is the POST /v1/decompress reply.
type DecompressResponse struct {
	Key   string `json:"key"`
	Data  []byte `json:"data"`
	Type  string `json:"type"`
	Dist  string `json:"dist"`
	Shard int    `json:"shard"`
}

// deleteRequest is the POST /v1/delete body.
type deleteRequest struct {
	Tenant string `json:"tenant"`
	Key    string `json:"key"`
}

// errorResponse is every non-2xx body: a human message and a stable
// machine code ("throttled", "quota_exceeded", "not_found", ...).
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// statResponse is the GET /v1/stat reply.
type statResponse struct {
	Shards  int                          `json:"shards"`
	Tenants []TenantStat                 `json:"tenants,omitempty"`
	Tenant  *TenantStat                  `json:"tenant,omitempty"`
	Status  []hcompress.TierStatusReport `json:"status,omitempty"`
	Stats   *hcompress.Stats             `json:"stats,omitempty"`
	Health  []hcompress.TierHealthReport `json:"health,omitempty"`
}

// sharder is the optional Backend refinement that reveals key routing;
// *hcompress.Router implements it. Without it (single shard) every
// response reports shard 0.
type sharder interface {
	Shards() int
	ShardFor(key string) int
}

func (s *Server) shardInfo(key string) (shards, owner int) {
	if sh, ok := s.backend.(sharder); ok {
		return sh.Shards(), sh.ShardFor(key)
	}
	return 1, 0
}

// Handler serves the service API:
//
//	POST /v1/compress    write one task (tenant, key, base64 data)
//	POST /v1/decompress  read it back
//	POST /v1/delete      remove it
//	GET  /v1/stat        cluster + per-tenant accounting (?tenant=name)
//	GET  /v1/slo         per-tenant, per-op SLO compliance and burn rates
//	GET  /v1/healthz     aggregate tier health (200 unless a tier is offline)
//	GET  /metrics        merged Prometheus exposition (shards + service)
//
// Requests may carry an X-Request-Id header; it becomes the trace ID on
// every span the request's shard emits (one is assigned otherwise).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compress", s.handleCompress)
	mux.HandleFunc("POST /v1/decompress", s.handleDecompress)
	mux.HandleFunc("POST /v1/delete", s.handleDelete)
	mux.HandleFunc("GET /v1/stat", s.handleStat)
	mux.HandleFunc("GET /v1/slo", s.handleSLO)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// reqContext lifts the caller-supplied request ID (X-Request-Id) into
// the context so the service's reqCtx propagates it instead of assigning
// one.
func reqContext(r *http.Request) context.Context {
	ctx := r.Context()
	if id := r.Header.Get("X-Request-Id"); id != "" {
		ctx = telemetry.WithReq(ctx, telemetry.ReqInfo{ID: id})
	}
	return ctx
}

// writeError maps the typed error taxonomy onto HTTP statuses. Every
// body is an errorResponse; errors.Is keeps working across the wire via
// the machine code.
func writeError(w http.ResponseWriter, err error) {
	code, status := "internal", http.StatusInternalServerError
	switch {
	case errors.Is(err, hcerr.ErrThrottled):
		code, status = "throttled", http.StatusTooManyRequests
	case errors.Is(err, hcerr.ErrQuotaExceeded):
		code, status = "quota_exceeded", http.StatusForbidden
	case errors.Is(err, hcerr.ErrNotFound):
		code, status = "not_found", http.StatusNotFound
	case errors.Is(err, hcerr.ErrCorrupted):
		code, status = "corrupted", http.StatusBadGateway
	case errors.Is(err, hcerr.ErrTierOffline), errors.Is(err, hcerr.ErrNoCapacity):
		code, status = "unavailable", http.StatusServiceUnavailable
	}
	writeJSON(w, status, errorResponse{Error: err.Error(), Code: code})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// maxRequestBody bounds a request body. The largest request the tests,
// examples and benchmark probes send is a 256 KiB task, about 342 KiB as
// base64 JSON; 16 MiB carries tasks up to 12 MiB.
const maxRequestBody = 16 << 20

// decodeBody decodes the JSON request body into v, answering 413 when the
// body passes maxRequestBody and 400 when it does not decode.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxRequestBody)
	defer func() { _, _ = io.Copy(io.Discard, body) }()
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
				Error: fmt.Sprintf("service: request body over %d bytes", tooLarge.Limit), Code: "too_large"})
			return false
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("service: bad request body: %v", err), Code: "bad_request"})
		return false
	}
	return true
}

func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request) {
	var req CompressRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Data) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "service: empty task data", Code: "bad_request"})
		return
	}
	rep, err := s.Compress(reqContext(r), req.Tenant, hcompress.Task{
		Key: req.Key, Data: req.Data, DataType: req.Type, Distribution: req.Dist,
	}, req.Priority)
	if err != nil {
		writeError(w, err)
		return
	}
	_, owner := s.shardInfo(fullKey(req.Tenant, req.Key))
	writeJSON(w, http.StatusOK, CompressResponse{
		Key:            req.Key,
		OriginalBytes:  rep.OriginalBytes,
		StoredBytes:    rep.StoredBytes,
		Ratio:          rep.Ratio,
		VirtualSeconds: rep.VirtualSeconds,
		Shard:          owner,
		Degraded:       rep.Degraded != nil,
	})
}

func (s *Server) handleDecompress(w http.ResponseWriter, r *http.Request) {
	var req DecompressRequest
	if !decodeBody(w, r, &req) {
		return
	}
	rep, err := s.Decompress(reqContext(r), req.Tenant, req.Key, req.Priority)
	if err != nil {
		writeError(w, err)
		return
	}
	_, owner := s.shardInfo(fullKey(req.Tenant, req.Key))
	resp := DecompressResponse{
		Key:   req.Key,
		Data:  rep.Data,
		Type:  rep.DataType,
		Dist:  rep.Distribution,
		Shard: owner,
	}
	writeJSON(w, http.StatusOK, resp)
	rep.Release() // the encoder has copied the bytes; return the buffer
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req deleteRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.Delete(req.Tenant, req.Key); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Key     string `json:"key"`
		Deleted bool   `json:"deleted"`
	}{req.Key, true})
}

func (s *Server) handleStat(w http.ResponseWriter, r *http.Request) {
	shards, _ := s.shardInfo("")
	resp := statResponse{Shards: shards}
	if name := r.URL.Query().Get("tenant"); name != "" {
		st := s.TenantUsage(name)
		resp.Tenant = &st
	} else {
		resp.Tenants = s.Tenants()
		sort.Slice(resp.Tenants, func(i, j int) bool { return resp.Tenants[i].Name < resp.Tenants[j].Name })
		resp.Status = s.backend.Status()
		stats := s.backend.Stats()
		resp.Stats = &stats
	}
	writeJSON(w, http.StatusOK, resp)
}

// sloResponse is the GET /v1/slo reply: one entry per (tenant, op)
// series seen inside the rolling window.
type sloResponse struct {
	SLOs []telemetry.SLOStatus `json:"slos"`
}

func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, sloResponse{SLOs: s.SLOReport()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	health := s.backend.Health()
	status := http.StatusOK
	for _, h := range health {
		if h.State == "offline" {
			status = http.StatusServiceUnavailable
			break
		}
	}
	writeJSON(w, status, statResponse{Health: health})
}

// handleMetrics serves the backend's merged exposition followed by the
// service's own tenant-labeled series (family names are disjoint, so the
// concatenation is a valid exposition).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.backend.WriteMetrics(w)
	if s.reg != nil {
		s.slo.Report() // refresh the hc_slo_* gauges at scrape time
		_ = s.reg.WritePrometheus(w)
	}
}

// ListenAndServe binds addr and serves the Handler until the returned
// shutdown func runs. It reports the bound address (useful with ":0").
func (s *Server) ListenAndServe(addr string) (bound string, shutdown func() error, err error) {
	srv := &http.Server{Handler: s.Handler()}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() error {
		err := srv.Close()
		// Serve returns promptly after Close; give in-flight handlers a
		// beat so tests tearing the backend down right after shutdown
		// don't race them.
		time.Sleep(10 * time.Millisecond)
		return err
	}, nil
}
