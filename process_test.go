package hcompress

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"hcompress/internal/bufpool"
	"hcompress/internal/stats"
)

// steadyGoroutines waits (up to 5 s) until the goroutine count has held
// still for 20 ms and returns it, so goroutines an earlier test left
// winding down do not land in a before/after difference.
func steadyGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline, still := time.Now().Add(5*time.Second), time.Now(); time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, time.Now()
		} else if time.Since(still) >= 20*time.Millisecond {
			break
		}
	}
	return n
}

// TestRouterGoroutinesIndependentOfShards: the worker pool, the demoter
// and the readahead worker belong to the router, one of each, so a
// 4-shard router starts exactly as many goroutines as a 1-shard one.
// Router.Close, and New followed by Client.Close, return the process to
// where it was.
func TestRouterGoroutinesIndependentOfShards(t *testing.T) {
	cfg := Config{
		Tiers:             routerTiers(),
		Parallelism:       2,
		DemotionInterval:  time.Millisecond,
		ReadCacheFraction: 0.1,
	}
	added := func(n int) int {
		base := steadyGoroutines()
		r, err := NewRouter(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		delta := runtime.NumGoroutine() - base
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if after := steadyGoroutines(); after > base {
			t.Errorf("%d-shard router: %d goroutines after Close, %d before", n, after, base)
		}
		return delta
	}
	one, four := added(1), added(4)
	if one <= 0 || four != one {
		t.Errorf("a 4-shard router added %d goroutines, a 1-shard router %d; want the same", four, one)
	}
	t.Logf("goroutines added: 1 shard %d, 4 shards %d", one, four)

	base := steadyGoroutines()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if after := steadyGoroutines(); after > base {
		t.Errorf("Client.Close left %d goroutines, %d before New", after, base)
	}
}

// seriesValues returns every series of the named metric in a Prometheus
// exposition, keyed by its label set ("" when unlabelled).
func seriesValues(t *testing.T, text, name string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for _, line := range strings.Split(text, "\n") {
		ref, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		series, labels, _ := strings.Cut(ref, "{")
		if series != name {
			continue
		}
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("series %s: %v", ref, err)
		}
		out[strings.TrimSuffix(labels, "}")] = v
	}
	return out
}

// TestRouterProcessSeriesRegisteredOnce: the arena and the worker pool
// are process-wide, so a multi-shard router exposes each of their series
// exactly once and unlabelled, counting every shard's traffic — not
// once per shard, and not booked to whichever shard was built last.
func TestRouterProcessSeriesRegisteredOnce(t *testing.T) {
	const shards, rounds, keys = 4, 3, 64
	r := newRouter(t, Config{Tiers: routerTiers(), EnableTelemetry: true, Parallelism: 2}, shards)
	_, _, _, puts0 := bufpool.Stats()
	data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 16<<10, 1)
	for round := 0; round < rounds; round++ {
		tasks := make([]Task, keys)
		for i := range tasks {
			tasks[i] = Task{Key: fmt.Sprintf("p%d", i), Data: data}
		}
		if _, err := r.CompressBatch(tasks); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < keys; i++ {
		rep, err := r.Decompress(fmt.Sprintf("p%d", i))
		if err != nil {
			t.Fatal(err)
		}
		rep.Release()
	}
	_, _, _, puts1 := bufpool.Stats()
	// Each round is one job whose items are the shards' sub-batches, and
	// every sub-batch fans its analysis and its codec work through the
	// pool: one plus two jobs per shard per round. A one-sub-task read
	// runs inline and submits none.
	want := map[string]int64{
		"hc_bufpool_puts_total": puts1 - puts0,
		"hc_pool_jobs_total":    rounds * (1 + 2*shards),
	}
	var text bytes.Buffer
	if err := r.WriteMetrics(&text); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	for name, v := range want {
		if v <= 0 {
			t.Fatalf("%s: no traffic to count (%d)", name, v)
		}
		if got := seriesValues(t, text.String(), name); len(got) != 1 || got[""] != v {
			t.Errorf("WriteMetrics %s series = %v, want one unlabelled series = %d", name, got, v)
		}
		var labelled []string
		for k := range snap.Counters {
			if strings.HasPrefix(k, name+"{") {
				labelled = append(labelled, k)
			}
		}
		if got := snap.Counters[name]; got != v || len(labelled) > 0 {
			t.Errorf("Snapshot %s = %d plus labelled %v, want one unlabelled series = %d", name, got, labelled, v)
		}
	}
}

// TestRouterMetricsAddrServesMergedExposition: a multi-shard router opens
// the one MetricsAddr listener, whose /metrics serves the bytes of
// Router.WriteMetrics, hc_goroutines included.
func TestRouterMetricsAddrServesMergedExposition(t *testing.T) {
	r := newRouter(t, Config{Tiers: routerTiers(), MetricsAddr: "127.0.0.1:0"}, 2)
	for i := 0; i < 8; i++ {
		if _, err := r.Compress(Task{Key: fmt.Sprintf("m%d", i), Data: bytes.Repeat([]byte("metrics "), 1024)}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get("http://" + r.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := r.WriteMetrics(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("/metrics differs from Router.WriteMetrics:\n%s\n---\n%s", body, want.Bytes())
	}
	for _, series := range []string{"\nhc_goroutines ", `hc_client_ops_total{op="compress",shard="0"}`, `hc_client_ops_total{op="compress",shard="1"}`} {
		if !bytes.Contains(body, []byte(series)) {
			t.Errorf("/metrics lacks %s", series)
		}
	}
}

// TestShardClosedAloneIsSkipped closes one shard of a router while the
// router's demoter and readahead worker have work queued on it: its fast
// tier sits past the high watermark, and its cache holds readahead
// candidates behind a slower pass over shard 0. From the moment
// Shard.Close returns nothing touches that shard's store — its tier,
// demoter and prefetch counters freeze while the router keeps serving
// the other shards — and Router.Close still succeeds, twice.
func TestShardClosedAloneIsSkipped(t *testing.T) {
	const shards, victim, interval = 4, 1, 100 * time.Millisecond
	r := newRouter(t, Config{
		Tiers:               demoteTiers(),
		EnableTelemetry:     true,
		Parallelism:         2,
		DemotionInterval:    interval,
		ReadCacheFraction:   0.25,
		ReadCacheMinTouches: 1,
	}, shards)
	// runsOn returns n key prefixes whose keys 0..4 all route to shard,
	// so an ascending read run on one queues readahead there alone.
	runsOn := func(shard, n int) []string {
		var out []string
		for j := 0; len(out) < n; j++ {
			p := fmt.Sprintf("run%d-", j)
			same := true
			for k := 0; k <= 4 && same; k++ {
				same = r.ShardFor(p+strconv.Itoa(k)) == shard
			}
			if same {
				out = append(out, p)
			}
		}
		return out
	}
	write := func(key string, data []byte) {
		t.Helper()
		if _, err := r.Compress(Task{Key: key, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	readRun := func(p string) {
		t.Helper()
		for k := 0; k < 3; k++ {
			rep, err := r.Decompress(p + strconv.Itoa(k))
			if err != nil {
				t.Fatal(err)
			}
			rep.Release()
		}
	}
	big := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 1<<20, 1)
	slow, fast := runsOn(0, 4), runsOn(victim, 1)[0]
	for _, p := range slow {
		for k := 0; k <= 4; k++ {
			write(p+strconv.Itoa(k), big)
		}
	}
	for k := 0; k <= 4; k++ {
		write(fast+strconv.Itoa(k), big[:4<<10])
	}
	// Queue readahead on shard 0, whose 1 MiB fills keep the worker busy,
	// then on the victim, and close the victim behind them.
	for _, p := range slow {
		readRun(p)
	}
	// Fill the victim's fast tier past the demoter's high watermark, then
	// queue its readahead.
	capB := float64(demoteTiers()[0].CapacityBytes)
	incompressible := stats.GenBuffer(stats.TypeBinary, stats.Uniform, 1<<20, 1)
	for i := 0; float64(r.Shard(victim).Status()[0].UsedBytes) < demotionHighWater*capB && i < 4096; i++ {
		if key := fmt.Sprintf("fill%d", i); r.ShardFor(key) == victim {
			write(key, incompressible)
		}
	}
	readRun(fast)
	if err := r.Shard(victim).Close(); err != nil {
		t.Fatal(err)
	}
	frozen := func() string {
		var out []string
		for k, v := range r.Shard(victim).Snapshot().Counters {
			for _, prefix := range []string{"hc_tier_", "hc_demoter_", "hc_prefetch_"} {
				if strings.HasPrefix(k, prefix) {
					out = append(out, fmt.Sprintf("%s=%d", k, v))
				}
			}
		}
		sort.Strings(out)
		return strings.Join(out, "\n")
	}
	at := frozen()
	// The router keeps serving the other shards, and its runner keeps
	// ticking over all of them, for several demotion intervals.
	other := runsOn(2, 1)[0]
	for k := 0; k <= 4; k++ {
		write(other+strconv.Itoa(k), big[:64<<10])
	}
	for deadline := time.Now().Add(3 * interval); time.Now().Before(deadline); {
		readRun(other)
		write(other+"3", big[:64<<10]) // invalidated, so readahead fills it again
	}
	if later := frozen(); later != at {
		t.Errorf("the closed shard's store was touched after Close:\nat close:\n%s\nlater:\n%s", at, later)
	}
	if _, err := r.Shard(victim).Decompress(fast + "0"); !errors.Is(err, ErrClosed) {
		t.Errorf("read on the closed shard: %v, want ErrClosed", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Router.Close: %v", err)
	}
}
