package hcompress

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hcompress/internal/codec"
	"hcompress/internal/predictor"
	"hcompress/internal/seed"
	"hcompress/internal/stats"
)

// predictAll is pred's prediction for every (type, dist, codec) cell,
// keyed as in a seed's costs.
func predictAll(pred *predictor.CCP) map[string]seed.CodecCost {
	out := map[string]seed.CodecCost{}
	for _, dt := range stats.AllTypes() {
		for _, dist := range stats.AllDists() {
			for _, name := range codec.Names() {
				out[seed.Key(dt, dist, name)], _ = pred.Predict(dt, dist, name)
			}
		}
	}
	return out
}

func newClient(t *testing.T, cfg Config) *Client {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	// A scarce RAM tier ahead of slow media creates the capacity pressure
	// under which compression pays (on fast, empty RAM the engine rightly
	// chooses "none" — see TestPlanSkipsCompressionOnFastEmptyRAM).
	c := newClient(t, Config{Tiers: []TierSpec{
		{Name: "ram", CapacityBytes: 64 << 10, LatencySec: 1e-6, BandwidthBps: 6e9, Lanes: 4},
		{Name: "pfs", CapacityBytes: 64 << 30, LatencySec: 5e-3, BandwidthBps: 100e6, Lanes: 4},
	}})
	data := []byte(strings.Repeat("hierarchical compression for tiered storage. ", 10000))
	rep, err := c.Compress(Task{Key: "k", Data: data})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OriginalBytes != int64(len(data)) {
		t.Errorf("original %d", rep.OriginalBytes)
	}
	if rep.StoredBytes <= 0 || rep.StoredBytes >= rep.OriginalBytes {
		t.Errorf("text should compress: stored %d of %d", rep.StoredBytes, rep.OriginalBytes)
	}
	if rep.Ratio <= 1 {
		t.Errorf("ratio %v", rep.Ratio)
	}
	if len(rep.SubTasks) == 0 {
		t.Error("no sub-tasks reported")
	}
	if rep.DataType != "text" {
		t.Errorf("detected type %q", rep.DataType)
	}
	back, err := c.Decompress("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Data, data) {
		t.Fatal("round-trip mismatch")
	}
	if back.VirtualSeconds <= 0 {
		t.Error("read must cost virtual time")
	}
}

func TestRoundTripAllDataClasses(t *testing.T) {
	c := newClient(t, Config{})
	for _, dt := range stats.AllTypes() {
		for _, d := range stats.AllDists() {
			key := dt.String() + "-" + d.String()
			data := stats.GenBuffer(dt, d, 1<<20, int64(dt)*10+int64(d))
			if _, err := c.Compress(Task{Key: key, Data: data}); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			rep, err := c.Decompress(key)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if !bytes.Equal(rep.Data, data) {
				t.Fatalf("%s: mismatch", key)
			}
		}
	}
}

func TestTaskValidation(t *testing.T) {
	c := newClient(t, Config{})
	if _, err := c.Compress(Task{Data: []byte("x")}); err == nil {
		t.Error("missing key accepted")
	}
	if _, err := c.Compress(Task{Key: "k"}); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := c.Decompress("missing"); err == nil {
		t.Error("unknown key accepted")
	}
}

func TestHints(t *testing.T) {
	c := newClient(t, Config{})
	data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 1<<20, 5)
	rep, err := c.Compress(Task{Key: "k", Data: data, DataType: "float", Distribution: "gamma"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DataType != "float" || rep.Distribution != "gamma" {
		t.Errorf("hints ignored: %s/%s", rep.DataType, rep.Distribution)
	}
}

func TestDelete(t *testing.T) {
	c := newClient(t, Config{})
	data := []byte(strings.Repeat("z", 1<<20))
	c.Compress(Task{Key: "k", Data: data})
	used := func() int64 {
		var total int64
		for _, s := range c.Status() {
			total += s.UsedBytes
		}
		return total
	}
	if used() == 0 {
		t.Fatal("nothing stored")
	}
	if err := c.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if used() != 0 {
		t.Error("capacity leaked")
	}
}

func TestStatusAndStats(t *testing.T) {
	c := newClient(t, Config{})
	data := []byte(strings.Repeat("status ", 200000))
	c.Compress(Task{Key: "k", Data: data})
	st := c.Status()
	if len(st) != 4 {
		t.Fatalf("tiers %d", len(st))
	}
	var used int64
	for _, s := range st {
		used += s.UsedBytes
	}
	if used == 0 {
		t.Error("no usage reported")
	}
	s := c.Stats()
	if s.VirtualSeconds <= 0 || s.Tasks != 1 {
		t.Errorf("stats %+v", s)
	}
}

func TestClosedClient(t *testing.T) {
	c := newClient(t, Config{})
	c.Close()
	if _, err := c.Compress(Task{Key: "k", Data: []byte("x")}); !errors.Is(err, ErrClosed) {
		t.Errorf("want ErrClosed, got %v", err)
	}
	if _, err := c.Decompress("k"); !errors.Is(err, ErrClosed) {
		t.Errorf("want ErrClosed, got %v", err)
	}
	if err := c.Delete("k"); !errors.Is(err, ErrClosed) {
		t.Errorf("want ErrClosed, got %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestCustomTiers(t *testing.T) {
	cfg := Config{Tiers: []TierSpec{
		{Name: "fast", CapacityBytes: 1 << 20, LatencySec: 1e-6, BandwidthBps: 1e9, Lanes: 1},
		{Name: "slow", CapacityBytes: 1 << 30, LatencySec: 1e-3, BandwidthBps: 1e7, Lanes: 1},
	}}
	c := newClient(t, cfg)
	data := stats.GenBuffer(stats.TypeText, stats.Uniform, 4<<20, 1)
	rep, err := c.Compress(Task{Key: "k", Data: data})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range rep.SubTasks {
		if st.Tier != "fast" && st.Tier != "slow" {
			t.Errorf("unknown tier %q", st.Tier)
		}
	}
	back, _ := c.Decompress("k")
	if !bytes.Equal(back.Data, data) {
		t.Fatal("mismatch")
	}
}

func TestInvalidConfig(t *testing.T) {
	if _, err := New(Config{Tiers: []TierSpec{{Name: "x"}}}); err == nil {
		t.Error("invalid tier accepted")
	}
	if _, err := New(Config{Codecs: []string{"zstd"}}); err == nil {
		t.Error("unknown codec accepted")
	}
	if _, err := New(Config{SeedPath: "/nonexistent.json"}); err == nil {
		t.Error("missing seed accepted")
	}
}

func TestDisableCompression(t *testing.T) {
	c := newClient(t, Config{DisableCompression: true})
	data := []byte(strings.Repeat("compressible! ", 100000))
	rep, err := c.Compress(Task{Key: "k", Data: data})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range rep.SubTasks {
		if st.Codec != "none" {
			t.Errorf("MTNC mode compressed with %s", st.Codec)
		}
	}
}

func TestRestrictedCodecs(t *testing.T) {
	c := newClient(t, Config{Codecs: []string{"snappy"}})
	data := []byte(strings.Repeat("snappy only ", 100000))
	rep, err := c.Compress(Task{Key: "k", Data: data})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range rep.SubTasks {
		if st.Codec != "none" && st.Codec != "snappy" {
			t.Errorf("codec %s outside pool", st.Codec)
		}
	}
}

func TestSetPrioritiesRuntime(t *testing.T) {
	c := newClient(t, Config{})
	data := []byte(strings.Repeat("priority switch ", 50000))
	if _, err := c.Compress(Task{Key: "a", Data: data}); err != nil {
		t.Fatal(err)
	}
	c.SetPriorities(PriorityArchival)
	if _, err := c.Compress(Task{Key: "b", Data: data}); err != nil {
		t.Fatal(err)
	}
	// Both must round-trip regardless of priorities.
	for _, k := range []string{"a", "b"} {
		rep, err := c.Decompress(k)
		if err != nil || !bytes.Equal(rep.Data, data) {
			t.Fatalf("%s: %v", k, err)
		}
	}
}

// TestSeedPersistence: Close writes the learned cost table into the
// seed, a client reopened on it predicts what the closed one predicted,
// and closing a client that learned nothing writes the seed back byte
// for byte (the tie-break pull is not re-applied on every reopen).
func TestSeedPersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seed.json")
	h, err := Config{}.hierarchy()
	if err != nil {
		t.Fatal(err)
	}
	builtin := seed.Builtin(h)
	if err := builtin.Save(path); err != nil {
		t.Fatal(err)
	}
	cfg := Config{SeedPath: path, SaveSeedOnClose: true}

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(strings.Repeat("persist ", 100000))
	if _, err := c.Compress(Task{Key: "k", Data: data}); err != nil {
		t.Fatal(err)
	}
	c.pred.Flush()
	before := predictAll(c.pred)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := seed.Load(path)
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
		t.Fatal("learned table not persisted")
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := predictAll(c2.pred)
	for _, k := range learned {
		if after[k] != before[k] {
			t.Errorf("learned %s: %+v before close, %+v after reopen", k, before[k], after[k])
		}
	}
	for k, b := range before {
		// Only a learned cell's same-type siblings may move, by less
		// than the predictor's 1e-3 tie-break pull.
		near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-3*y }
		if a := after[k]; !near(a.CompressMBps, b.CompressMBps) || !near(a.DecompressMBps, b.DecompressMBps) || !near(a.Ratio, b.Ratio) {
			t.Errorf("%s: %+v before close, %+v after reopen", k, b, a)
		}
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Error("save -> load -> save changed the seed")
	}
}

func TestManySmallTasks(t *testing.T) {
	c := newClient(t, Config{})
	data := stats.GenBuffer(stats.TypeInt, stats.Normal, 64<<10, 9)
	for i := 0; i < 50; i++ {
		key := "task-" + string(rune('0'+i%10)) + string(rune('a'+i/10))
		if _, err := c.Compress(Task{Key: key, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Tasks != 50 {
		t.Errorf("tasks %d", s.Tasks)
	}
	if s.PlanCacheHits == 0 {
		t.Error("repeated identical tasks should be served by the plan cache")
	}
}
