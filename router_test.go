package hcompress

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hcompress/internal/seed"
)

func newRouter(t *testing.T, cfg Config, n int) *Router {
	t.Helper()
	r, err := NewRouter(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// routerTiers keeps per-shard pipelines small so multi-shard routers
// construct quickly in tests.
func routerTiers() []TierSpec {
	return []TierSpec{
		{Name: "ram", CapacityBytes: 4 << 20, LatencySec: 1e-6, BandwidthBps: 6e9, Lanes: 4},
		{Name: "pfs", CapacityBytes: 1 << 30, LatencySec: 5e-3, BandwidthBps: 500e6, Lanes: 4},
	}
}

// keysOn returns n keys that r routes to shard i.
func keysOn(r *Router, i, n int) []string {
	var keys []string
	for k := 0; len(keys) < n; k++ {
		if key := fmt.Sprintf("k%d", k); r.ShardFor(key) == i {
			keys = append(keys, key)
		}
	}
	return keys
}

// learnerConfig is a modeled 4-shard setup whose writes compress, so
// every sub-task posts one deterministic cost observation.
func learnerConfig() Config {
	return Config{Tiers: routerTiers(), Priorities: PriorityArchival, FeedbackInterval: 1, modeled: true}
}

// writeText compresses one text/normal payload under each key and
// returns how many sub-tasks were stored with a codec, that is, how
// many cost observations the writes fed.
func writeText(t *testing.T, r *Router, keys []string) (fed int) {
	t.Helper()
	data := []byte(strings.Repeat("one learner for every shard. ", 2048))
	for _, key := range keys {
		rep, err := r.Compress(Task{Key: key, Data: data, DataType: "text", Distribution: "normal"})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range rep.SubTasks {
			if st.Codec != "none" {
				fed++
			}
		}
	}
	if fed == 0 {
		t.Fatal("every sub-task was stored uncompressed; nothing was fed")
	}
	return fed
}

// TestRouterSavesEveryShardsLearning: with SaveSeedOnClose, what a shard
// other than 0 learned reaches the seed, and a reopened router predicts
// it. The CCP is the router's, so no shard's feedback is dropped.
func TestRouterSavesEveryShardsLearning(t *testing.T) {
	cfg := learnerConfig()
	cfg.SeedPath = filepath.Join(t.TempDir(), "seed.json")
	cfg.SaveSeedOnClose = true
	h, err := cfg.hierarchy()
	if err != nil {
		t.Fatal(err)
	}
	builtin := seed.Builtin(h)
	if err := builtin.Save(cfg.SeedPath); err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	writeText(t, r, keysOn(r, 2, 16))
	r.Shard(2).pred.Flush()
	before := predictAll(r.Shard(2).pred)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := seed.Load(cfg.SeedPath)
	if err != nil {
		t.Fatal(err)
	}
	var learned []string
	for k, v := range back.Costs {
		if v != builtin.Costs[k] {
			learned = append(learned, k)
		}
	}
	if len(learned) == 0 {
		t.Fatal("shard 2's learned costs were not saved")
	}
	r2 := newRouter(t, cfg, 4)
	for i := 0; i < r2.Shards(); i++ {
		after := predictAll(r2.Shard(i).pred)
		for _, k := range learned {
			if after[k] != before[k] {
				t.Errorf("reopened shard %d predicts %s = %+v, shard 2 learned %+v", i, k, after[k], before[k])
			}
		}
	}
}

// TestShardFeedbackMovesEveryShardsPlan: feedback posted by writes on
// shard 1 moves the prediction shard 3 plans with, though shard 3 has
// stored nothing.
func TestShardFeedbackMovesEveryShardsPlan(t *testing.T) {
	r := newRouter(t, learnerConfig(), 4)
	before := predictAll(r.Shard(3).pred)
	writeText(t, r, keysOn(r, 1, 8))
	if n := r.Shard(3).Stats().Tasks; n != 0 {
		t.Fatalf("shard 3 stores %d tasks, want 0", n)
	}
	moved := 0
	for k, v := range predictAll(r.Shard(3).pred) {
		if v != before[k] {
			moved++
		}
	}
	if moved == 0 {
		t.Error("shard 1's feedback moved none of the predictions shard 3 plans with")
	}
}

// TestRouterStatsReadsTheCCPOnce: the router's feedback counts equal the
// observations its writes fed, and its hc_ccp_* series exist once,
// unlabelled — the shared CCP is not counted once per shard.
func TestRouterStatsReadsTheCCPOnce(t *testing.T) {
	cfg := learnerConfig()
	cfg.EnableTelemetry = true
	r := newRouter(t, cfg, 4)
	keys := make([]string, 32)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	fed := writeText(t, r, keys)
	st := r.Stats()
	if st.FeedbackQueued != fed || st.FeedbackAbsorbed != fed {
		t.Errorf("Stats feedback queued %d, absorbed %d; the writes fed %d", st.FeedbackQueued, st.FeedbackAbsorbed, fed)
	}
	if shard := r.Shard(0).Stats(); st.ModelAccuracy != shard.ModelAccuracy || shard.FeedbackAbsorbed != fed {
		t.Errorf("router reads accuracy %v, absorbed %d; shard 0 reads %v, %d", st.ModelAccuracy, st.FeedbackAbsorbed, shard.ModelAccuracy, shard.FeedbackAbsorbed)
	}
	snap := r.Snapshot()
	for name, series := range snap.Counters {
		if strings.HasPrefix(name, "hc_ccp_feedback_absorbed_total") && (name != "hc_ccp_feedback_absorbed_total" || series != int64(fed)) {
			t.Errorf("Snapshot %s = %d, want only the unlabelled series = %d", name, series, fed)
		}
	}
	if _, ok := snap.Counters["hc_ccp_feedback_absorbed_total"]; !ok {
		t.Error("Snapshot lacks hc_ccp_feedback_absorbed_total")
	}
}

// TestRendezvousDistribution is the load-balance gate: rendezvous
// hashing must spread a large key population near-uniformly. 10k keys
// over 4 shards gives an expected 2500/shard; the max/min ratio bound
// of 1.2 allows ~±9% — generous for hash noise, tight enough to catch
// a broken mixer or salt collision.
func TestRendezvousDistribution(t *testing.T) {
	r := newRouter(t, Config{Tiers: routerTiers(), modeled: true}, 4)
	counts := make([]int, 4)
	for i := 0; i < 10000; i++ {
		counts[r.ShardFor(fmt.Sprintf("key-%d", i))]++
	}
	min, max := counts[0], counts[0]
	for _, c := range counts[1:] {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if min == 0 {
		t.Fatalf("a shard received no keys: %v", counts)
	}
	if ratio := float64(max) / float64(min); ratio > 1.2 {
		t.Fatalf("shard load imbalance %.3f > 1.2: %v", ratio, counts)
	}
}

// TestShardForStableAcrossRestarts pins the routing function: key→shard
// is a pure function of (key, shard count), so a rebuilt router — a
// restart — must route every key identically, or persisted placements
// would be orphaned.
func TestShardForStableAcrossRestarts(t *testing.T) {
	a := newRouter(t, Config{Tiers: routerTiers(), modeled: true}, 4)
	b := newRouter(t, Config{Tiers: routerTiers(), modeled: true}, 4)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("stable-%d", i)
		if ai, bi := a.ShardFor(key), b.ShardFor(key); ai != bi {
			t.Fatalf("key %q routed to shard %d, then %d after restart", key, ai, bi)
		}
	}
}

// TestRouterRoundTripAndShardIsolation writes through the router and
// asserts (a) the data round-trips, (b) the key landed on exactly the
// shard ShardFor names — readable there directly, ErrNotFound on every
// other shard.
func TestRouterRoundTripAndShardIsolation(t *testing.T) {
	r := newRouter(t, Config{Tiers: routerTiers()}, 4)
	data := []byte(strings.Repeat("routed payload. ", 4096))
	if _, err := r.Compress(Task{Key: "routed", Data: data}); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Decompress("routed")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep.Data, data) {
		t.Fatalf("round trip corrupted: got %d bytes, want %d", len(rep.Data), len(data))
	}
	rep.Release()

	owner := r.ShardFor("routed")
	for i := 0; i < r.Shards(); i++ {
		rep, err := r.Shard(i).Decompress("routed")
		if i == owner {
			if err != nil {
				t.Fatalf("owner shard %d: %v", i, err)
			}
			rep.Release()
			continue
		}
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("shard %d (not owner): want ErrNotFound, got %v", i, err)
		}
	}
}

// TestRouterBatchReassembly fans a batch across shards and asserts the
// reports come back in input order, one per task, each round-tripping.
func TestRouterBatchReassembly(t *testing.T) {
	r := newRouter(t, Config{Tiers: routerTiers()}, 4)
	const n = 32
	tasks := make([]Task, n)
	hit := make(map[int]bool)
	for i := range tasks {
		tasks[i] = Task{
			Key:  fmt.Sprintf("batch-%d", i),
			Data: []byte(strings.Repeat(fmt.Sprintf("block %d. ", i), 2048)),
		}
		hit[r.ShardFor(tasks[i].Key)] = true
	}
	if len(hit) < 2 {
		t.Fatalf("want the batch spread over >= 2 shards, got %d", len(hit))
	}
	reps, err := r.CompressBatch(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != n {
		t.Fatalf("got %d reports, want %d", len(reps), n)
	}
	keys := make([]string, n)
	for i, rep := range reps {
		if rep.Key != tasks[i].Key {
			t.Fatalf("report %d: key %q, want %q (order not preserved)", i, rep.Key, tasks[i].Key)
		}
		keys[i] = rep.Key
	}
	reads, err := r.DecompressBatch(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reads {
		if rep.Key != keys[i] {
			t.Fatalf("read %d: key %q, want %q", i, rep.Key, keys[i])
		}
		if !bytes.Equal(rep.Data, tasks[i].Data) {
			t.Fatalf("read %d: payload mismatch", i)
		}
		rep.Release()
	}
}

// TestRouterAggregateViews cross-checks the composed views against the
// per-shard ones: Status sums capacity/used per tier index, Stats sums
// task counts, Health covers every tier.
func TestRouterAggregateViews(t *testing.T) {
	r := newRouter(t, Config{Tiers: routerTiers()}, 2)
	for i := 0; i < 8; i++ {
		data := []byte(strings.Repeat(fmt.Sprintf("agg %d. ", i), 2048))
		if _, err := r.Compress(Task{Key: fmt.Sprintf("agg-%d", i), Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	agg := r.Status()
	if len(agg) != len(routerTiers()) {
		t.Fatalf("aggregate status has %d tiers, want %d", len(agg), len(routerTiers()))
	}
	for ti, tierAgg := range agg {
		var cap64, used int64
		for si := 0; si < r.Shards(); si++ {
			st := r.ShardStatus(si)[ti]
			cap64 += st.CapacityBytes
			used += st.UsedBytes
		}
		if tierAgg.CapacityBytes != cap64 {
			t.Fatalf("tier %d: aggregate capacity %d, shard sum %d", ti, tierAgg.CapacityBytes, cap64)
		}
		if tierAgg.UsedBytes != used {
			t.Fatalf("tier %d: aggregate used %d, shard sum %d", ti, tierAgg.UsedBytes, used)
		}
		if tierAgg.Health != "healthy" {
			t.Fatalf("tier %d: health %q, want healthy", ti, tierAgg.Health)
		}
	}
	var tasks int
	for si := 0; si < r.Shards(); si++ {
		tasks += r.Shard(si).Stats().Tasks
	}
	if got := r.Stats().Tasks; got != tasks || got != 8 {
		t.Fatalf("aggregate Stats.Tasks = %d, shard sum %d, want 8", got, tasks)
	}
	if h := r.Health(); len(h) != len(routerTiers()) {
		t.Fatalf("aggregate health has %d tiers, want %d", len(h), len(routerTiers()))
	}
}

// TestRouterSingleShard pins the degenerate case the Client facade
// relies on: a 1-shard router routes everything to shard 0 and its
// views are the shard's views verbatim.
func TestRouterSingleShard(t *testing.T) {
	r := newRouter(t, Config{Tiers: routerTiers()}, 1)
	for i := 0; i < 100; i++ {
		if s := r.ShardFor(fmt.Sprintf("k%d", i)); s != 0 {
			t.Fatalf("1-shard router sent %q to shard %d", fmt.Sprintf("k%d", i), s)
		}
	}
	if _, err := r.Compress(Task{Key: "solo", Data: bytes.Repeat([]byte("x"), 8192)}); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Stats(), r.Shard(0).Stats(); got != want {
		t.Fatalf("1-shard aggregate Stats %+v != shard Stats %+v", got, want)
	}
}

// TestRouterInvalidConfig covers the constructor rejection: a shardless
// router. (Any shard count may set MetricsAddr: the router owns the one
// listener; TestRouterMetricsAddrServesMergedExposition.)
func TestRouterInvalidConfig(t *testing.T) {
	if _, err := NewRouter(Config{}, 0); err == nil {
		t.Fatal("NewRouter(0) succeeded")
	}
}

// TestRouterConcurrentAggregation is the -race gate for the
// aggregation paths: readers sweep Status/Health/Stats/Snapshot/Audits
// while writers mutate every shard through the routed APIs, single-key
// and batched (one batch caller cancelled mid-stream). The
// sequential one-shard-at-a-time snapshot rule means no view ever
// holds two shard locks; the race detector confirms no torn reads.
func TestRouterConcurrentAggregation(t *testing.T) {
	r := newRouter(t, Config{Tiers: routerTiers(), EnableTelemetry: true}, 4)
	data := []byte(strings.Repeat("contended block. ", 1024))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				key := fmt.Sprintf("c%d-%d", g, i)
				if _, err := r.Compress(Task{Key: key, Data: data}); err != nil {
					t.Error(err)
					return
				}
				if rep, err := r.Decompress(key); err != nil {
					t.Error(err)
					return
				} else {
					rep.Release()
				}
				if i%4 == 3 {
					if err := r.Delete(key); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	// Two batch callers scatter across every shard at once, so nested pool
	// jobs (a shard's sub-batch fanning its own work out) run concurrently.
	// The second cancels its context while a batch is in flight; from then
	// on its calls may fail, but only with the cancellation or with the
	// keys a cancelled write never stored.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			for i := 0; i < 8; i++ {
				if g == 1 && i == 3 {
					go cancel()
				}
				tasks := make([]Task, 8)
				keys := make([]string, len(tasks))
				for j := range tasks {
					keys[j] = fmt.Sprintf("b%d-%d-%d", g, i, j)
					tasks[j] = Task{Key: keys[j], Data: data}
				}
				_, werr := r.CompressBatchContext(ctx, tasks)
				reps, rerr := r.DecompressBatchContext(ctx, keys)
				for _, rep := range reps {
					if rep != nil {
						rep.Release()
					}
				}
				for _, err := range []error{werr, rerr} {
					if err != nil && (g == 0 || !errors.Is(err, context.Canceled) && !errors.Is(err, ErrNotFound)) {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sink bytes.Buffer
			for i := 0; i < 32; i++ {
				_ = r.Status()
				_ = r.Health()
				_ = r.Stats()
				_ = r.Snapshot()
				_ = r.Audits()
				sink.Reset()
				if err := r.WriteMetrics(&sink); err != nil {
					t.Error(err)
					return
				}
				r.Advance(0.001)
			}
		}()
	}
	wg.Wait()
}

// TestClientFacadeEquivalence gates the facade: the Client is a 1-shard
// router, and a serial modeled workload must trace byte-identically
// through either surface — the refactor moved the pipeline, it did not
// change it. Two facade runs also pin determinism across construction.
func TestClientFacadeEquivalence(t *testing.T) {
	workload := func(compress func(Task) (*Report, error), decompress func(string) (*Report, error), del func(string) error) {
		t.Helper()
		for i := 0; i < 6; i++ {
			data := []byte(strings.Repeat(fmt.Sprintf("tiered storage block %d. ", i), 4000+500*i))
			if _, err := compress(Task{Key: fmt.Sprintf("k%d", i), Data: data}); err != nil {
				t.Fatalf("compress k%d: %v", i, err)
			}
		}
		for i := 0; i < 4; i++ {
			if _, err := decompress(fmt.Sprintf("k%d", i)); err != nil {
				t.Fatalf("decompress k%d: %v", i, err)
			}
		}
		if err := del("k5"); err != nil {
			t.Fatal(err)
		}
	}
	cfg := func(buf *bytes.Buffer) Config {
		return Config{Tiers: scarceTiers(), Parallelism: 1, TraceWriter: buf, modeled: true}
	}
	viaClient := func() []byte {
		var buf bytes.Buffer
		c, err := New(cfg(&buf))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		workload(c.Compress, c.Decompress, c.Delete)
		return buf.Bytes()
	}
	viaRouter := func() []byte {
		var buf bytes.Buffer
		r, err := NewRouter(cfg(&buf), 1)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		workload(r.Compress, r.Decompress, r.Delete)
		return buf.Bytes()
	}
	a, b, c := viaClient(), viaClient(), viaRouter()
	if len(a) == 0 {
		t.Fatal("no trace output")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("facade runs diverge:\n-- run 1 --\n%s\n-- run 2 --\n%s", a, b)
	}
	if !bytes.Equal(a, c) {
		t.Fatalf("facade vs 1-shard router diverge:\n-- facade --\n%s\n-- router --\n%s", a, c)
	}
}
