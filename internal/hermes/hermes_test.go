package hermes

import (
	"bytes"
	"strings"
	"testing"

	"hcompress/internal/analyzer"
	"hcompress/internal/manager"
	"hcompress/internal/seed"
	"hcompress/internal/stats"
	"hcompress/internal/store"
	"hcompress/internal/tier"
)

func realBaseline(t *testing.T, codecName string, h tier.Hierarchy) *Baseline {
	t.Helper()
	st, err := store.Open(h, store.Options{KeepData: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(st, codecName, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWriteReadNoCompression(t *testing.T) {
	b := realBaseline(t, "", tier.Ares(tier.GB, tier.GB, tier.GB, tier.TB))
	data := []byte(strings.Repeat("multi-tier buffering ", 10000))
	attr := analyzer.Analyze(data)
	wres, err := b.Write(0, "k", data, int64(len(data)), attr)
	if err != nil {
		t.Fatal(err)
	}
	if wres.Stored != int64(len(data)) {
		t.Errorf("MTNC stored %d, want %d", wres.Stored, len(data))
	}
	if wres.CodecTime != 0 {
		t.Error("MTNC should spend no codec time")
	}
	rres, err := b.Read(wres.End, "k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rres.Data, data) {
		t.Fatal("round-trip mismatch")
	}
	if b.Codec() != "none" {
		t.Errorf("codec %q", b.Codec())
	}
}

func TestWriteReadWithFixedCodec(t *testing.T) {
	for _, name := range []string{"lz4", "zlib", "snappy"} {
		b := realBaseline(t, name, tier.Ares(tier.GB, tier.GB, tier.GB, tier.TB))
		data := []byte(strings.Repeat("fixed library compression ", 20000))
		attr := analyzer.Analyze(data)
		wres, err := b.Write(0, "k", data, int64(len(data)), attr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if wres.Stored >= int64(len(data)) {
			t.Errorf("%s: no reduction (%d >= %d)", name, wres.Stored, len(data))
		}
		rres, err := b.Read(wres.End, "k")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(rres.Data, data) {
			t.Fatalf("%s: mismatch", name)
		}
	}
}

func TestUnknownCodecRejected(t *testing.T) {
	st, _ := store.Open(tier.Hierarchy{Tiers: tier.Ares(1, 1, 1, tier.GB).Tiers[3:]}, store.Options{KeepData: true})
	if _, err := New(st, "zstd", nil); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestPlaceThenCompressUnderutilizesTiers(t *testing.T) {
	// The paper's Fig. 5 observation: Hermes reserves by uncompressed
	// size, so a compressing run underfills RAM physically while its
	// reservation is full. Write compressible data worth exactly the RAM
	// capacity: the next task must go to the lower tier even though RAM
	// has physical space.
	h := tier.Hierarchy{Tiers: []tier.Spec{
		{Name: "ram", Capacity: 1 << 20, Latency: 1e-6, Bandwidth: 1e9, Lanes: 1},
		{Name: "ssd", Capacity: 1 << 30, Latency: 1e-4, Bandwidth: 1e8, Lanes: 1},
	}}
	b := realBaseline(t, "zlib", h)
	data := []byte(strings.Repeat("under-utilization ", 58254))[:1<<20] // exactly 1 MiB
	attr := analyzer.Analyze(data)
	if _, err := b.Write(0, "a", data, int64(len(data)), attr); err != nil {
		t.Fatal(err)
	}
	// RAM reservation is full; physical occupancy is far below capacity.
	if b.Reserved(0) != 1<<20 {
		t.Fatalf("reserved %d", b.Reserved(0))
	}
	phys := b.Store().Used(0)
	if phys >= 1<<19 {
		t.Fatalf("zlib should compress 2x+: physical %d", phys)
	}
	// Second task: spills to ssd despite free physical RAM.
	wres, err := b.Write(0, "b", data, int64(len(data)), attr)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range wres.SubResults {
		if sr.Tier == 0 {
			t.Error("place-then-compress must not reuse reserved RAM")
		}
	}
}

func TestSplitAcrossTiers(t *testing.T) {
	h := tier.Hierarchy{Tiers: []tier.Spec{
		{Name: "ram", Capacity: 1 << 20, Latency: 0, Bandwidth: 1e9, Lanes: 1},
		{Name: "ssd", Capacity: 1 << 30, Latency: 0, Bandwidth: 1e8, Lanes: 1},
	}}
	b := realBaseline(t, "", h)
	data := stats.GenBuffer(stats.TypeInt, stats.Uniform, 3<<20, 1)
	attr := analyzer.Analyze(data)
	wres, err := b.Write(0, "k", data, int64(len(data)), attr)
	if err != nil {
		t.Fatal(err)
	}
	if len(wres.SubResults) != 2 {
		t.Fatalf("want split into 2, got %d", len(wres.SubResults))
	}
	if wres.SubResults[0].Tier != 0 || wres.SubResults[1].Tier != 1 {
		t.Errorf("split tiers: %+v", wres.SubResults)
	}
	rres, err := b.Read(wres.End, "k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rres.Data, data) {
		t.Fatal("split round-trip mismatch")
	}
}

func TestCapacityExhaustion(t *testing.T) {
	h := tier.Hierarchy{Tiers: []tier.Spec{
		{Name: "only", Capacity: 1 << 20, Latency: 0, Bandwidth: 1e9, Lanes: 1},
	}}
	b := realBaseline(t, "", h)
	data := make([]byte, 2<<20)
	if _, err := b.Write(0, "k", data, int64(len(data)), analyzer.Result{}); err == nil {
		t.Fatal("over-capacity write accepted")
	}
}

func TestDeleteReleasesReservations(t *testing.T) {
	b := realBaseline(t, "lz4", tier.Ares(tier.GB, tier.GB, tier.GB, tier.TB))
	data := []byte(strings.Repeat("release me ", 20000))
	attr := analyzer.Analyze(data)
	b.Write(0, "k", data, int64(len(data)), attr)
	if b.Tasks() != 1 {
		t.Fatal("task not tracked")
	}
	if err := b.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if b.Reserved(0) != 0 || b.Store().Used(0) != 0 {
		t.Error("delete leaked reservation or capacity")
	}
	if err := b.Delete("k"); err == nil {
		t.Error("double delete accepted")
	}
}

func TestModeledBaseline(t *testing.T) {
	h := tier.Ares(tier.GB, tier.GB, tier.GB, tier.TB)
	st, _ := store.Open(h, store.Options{})
	truth := seed.Builtin(h)
	b, err := New(st, "snappy", manager.ModelOracle{Truth: truth})
	if err != nil {
		t.Fatal(err)
	}
	attr := analyzer.Result{Type: stats.TypeFloat, Dist: stats.Gamma}
	wres, err := b.Write(0, "k", nil, 32<<20, attr)
	if err != nil {
		t.Fatal(err)
	}
	if wres.Stored <= 0 || wres.Stored >= 32<<20 {
		t.Errorf("modeled stored %d", wres.Stored)
	}
	if wres.CodecTime <= 0 {
		t.Error("modeled compression must cost time")
	}
	rres, err := b.Read(wres.End, "k")
	if err != nil {
		t.Fatal(err)
	}
	if rres.Data != nil {
		t.Error("modeled read returned data")
	}
	if rres.End <= wres.End {
		t.Error("modeled read must cost time")
	}
}

func TestReadUnknownTask(t *testing.T) {
	b := realBaseline(t, "", tier.Hierarchy{Tiers: tier.Ares(1, 1, 1, tier.GB).Tiers[3:]})
	if _, err := b.Read(0, "nope"); err == nil {
		t.Fatal("unknown task read accepted")
	}
}

func TestDrainFreesReservations(t *testing.T) {
	h := tier.Hierarchy{Tiers: []tier.Spec{
		{Name: "ram", Capacity: 1 << 20, Latency: 1e-6, Bandwidth: 1e9, Lanes: 1},
		{Name: "ssd", Capacity: 1 << 30, Latency: 1e-4, Bandwidth: 1e8, Lanes: 1},
	}}
	st, _ := store.Open(h, store.Options{})
	truth := seed.Builtin(h)
	b, err := New(st, "", manager.ModelOracle{Truth: truth})
	if err != nil {
		t.Fatal(err)
	}
	attr := analyzer.Result{Type: stats.TypeInt, Dist: stats.Gamma}
	// Fill the RAM reservation completely.
	if _, err := b.Write(0, "a", nil, 1<<20, attr); err != nil {
		t.Fatal(err)
	}
	if b.Reserved(0) == 0 {
		t.Fatal("no RAM reservation made")
	}
	// Drain: both the blob and the reservation must move down.
	if moved := b.Drain(1, 100); moved <= 0 {
		t.Fatal("drain moved nothing")
	}
	if b.Reserved(0) != 0 {
		t.Errorf("RAM reservation not released: %d", b.Reserved(0))
	}
	if st.Used(0) != 0 {
		t.Errorf("RAM blob not moved: %d", st.Used(0))
	}
	// The freed budget is reusable and the old task still readable.
	if _, err := b.Write(200, "b", nil, 1<<20, attr); err != nil {
		t.Fatalf("freed reservation unusable: %v", err)
	}
	if _, err := b.Read(300, "a"); err != nil {
		t.Fatalf("read after drain: %v", err)
	}
}
