package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"hcompress"
	"hcompress/internal/service"
)

// probeService measures what the HTTP/JSON front-end adds: a compress +
// decompress round trip over one keep-alive loopback connection against
// the same pair through Server.Compress/Decompress directly. Loopback
// HTTP with two goroutine sets on two cores spread 0.12-0.17 of the
// median run to run, so it is a probe and not a bounded workload.
func probeService(e *probeEnv) {
	r, err := hcompress.NewRouter(e.glueConfig(), e.def.shards)
	if !e.must(err, "hcompress.NewRouter") {
		return
	}
	defer func() { e.must(r.Close(), "Router.Close") }()
	srv, err := service.New(r, service.Config{})
	if !e.must(err, "service.New") {
		return
	}
	addr, shutdown, err := srv.ListenAndServe("127.0.0.1:0")
	if !e.must(err, "service.ListenAndServe") {
		e.add("service.glue_us_op", 0, "us", 0)
		e.add("service.http_ops_s", 0, "1/s", 0)
		return
	}
	defer func() { e.must(shutdown(), "service shutdown") }()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()

	post := func(path string, in, out any) error {
		body, err := json.Marshal(in)
		if err != nil {
			return err
		}
		resp, err := client.Post("http://"+addr+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("%s: %s: %s", path, resp.Status, msg)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}

	n := e.iters(300)
	start := time.Now()
	httpNs := perOp(n, func(i int) {
		key, want := fmt.Sprintf("h-%d", i), e.sample(i)
		var cr service.CompressResponse
		e.must(post("/v1/compress", service.CompressRequest{Tenant: "bench", Key: key, Data: want}, &cr), "POST /v1/compress")
		var dr service.DecompressResponse
		if e.must(post("/v1/decompress", service.DecompressRequest{Tenant: "bench", Key: key}, &dr), "POST /v1/decompress") {
			e.verify(dr.Data, want, "service http")
		}
	})
	httpOps := ratio(float64(n/5*5*2), time.Since(start).Seconds())
	ctx := context.Background()
	directNs := perOp(n, func(i int) {
		key, want := fmt.Sprintf("s-%d", i), e.sample(i)
		_, err := srv.Compress(ctx, "bench", hcompress.Task{Key: key, Data: want}, "")
		e.must(err, "Server.Compress")
		rep, err := srv.Decompress(ctx, "bench", key, "")
		if e.must(err, "Server.Decompress") {
			e.verify(rep.Data, want, "service direct")
			rep.Release()
		}
	})
	e.add("service.glue_us_op", (httpNs-directNs)/2/1e3, "us", n)
	e.add("service.http_ops_s", httpOps, "1/s", n)
}
