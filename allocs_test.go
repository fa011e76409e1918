package hcompress

import (
	"fmt"
	"runtime"
	"testing"

	"hcompress/internal/stats"
)

// Seed allocs/op on the hot paths before the pooled data plane landed
// (measured with the same workload as TestHotPathAllocs: 1 MiB
// float/gamma buffers through a zero-value Config client).
const (
	seedCompressAllocs   = 71.0
	seedDecompressAllocs = 39.0
)

// TestHotPathAllocs gates the allocation-free data plane: the pooled
// buffer arena, codec scratch reuse, and plan cache together must cut
// steady-state allocs/op on both hot paths by at least 70% versus the
// seed baselines above.
func TestHotPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is slow under -short")
	}
	if raceEnabled {
		t.Skip("-race randomizes sync.Pool reuse; alloc accounting is meaningless")
	}
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 1<<20, 3)

	i := 0
	compAllocs := testing.AllocsPerRun(64, func() {
		key := fmt.Sprintf("k%d", i)
		i++
		if _, err := c.Compress(Task{Key: key, Data: data}); err != nil {
			t.Fatal(err)
		}
		if err := c.Delete(key); err != nil {
			t.Fatal(err)
		}
	})

	if _, err := c.Compress(Task{Key: "rb", Data: data}); err != nil {
		t.Fatal(err)
	}
	readAllocs := testing.AllocsPerRun(64, func() {
		r, err := c.Decompress("rb")
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	})

	t.Logf("compress+delete: %.1f allocs/op (seed %.1f)", compAllocs, seedCompressAllocs)
	t.Logf("decompress:      %.1f allocs/op (seed %.1f)", readAllocs, seedDecompressAllocs)
	if limit := 0.30 * seedCompressAllocs; compAllocs > limit {
		t.Errorf("compress+delete allocs/op = %.1f, want <= %.1f (70%% below the %.1f seed)",
			compAllocs, limit, seedCompressAllocs)
	}
	if limit := 0.30 * seedDecompressAllocs; readAllocs > limit {
		t.Errorf("decompress allocs/op = %.1f, want <= %.1f (70%% below the %.1f seed)",
			readAllocs, limit, seedDecompressAllocs)
	}
}

// TestLZ4RoundTripBytes pins the bytes a 64 KiB lz4 round trip allocates
// through a Client configured as the zipf_reread benchmark workload is
// (Codecs lz4, PriorityArchival). lz4 keeps its hash table in the worker's
// Scratch and decodes in place into the manager's region, so neither a
// 256 KiB table per write nor a fresh output slice per read remains; the
// bound leaves room for the reports and bookkeeping, not for either.
func TestLZ4RoundTripBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is slow under -short")
	}
	if raceEnabled {
		t.Skip("-race randomizes sync.Pool reuse; alloc accounting is meaningless")
	}
	const ops, bound = 64, 16 << 10
	c, err := New(Config{Codecs: []string{"lz4"}, Priorities: PriorityArchival})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := stats.GenBuffer(stats.TypeText, stats.Normal, 64<<10, 5)
	roundTrip := func(key string) {
		w, err := c.Compress(Task{Key: key, Data: data})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range w.SubTasks {
			if st.Codec != "lz4" {
				t.Fatalf("sub-task stored with %q, want lz4", st.Codec)
			}
		}
		r, err := c.Decompress(key)
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
		if err := c.Delete(key); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		roundTrip(fmt.Sprintf("warm%d", i))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		roundTrip(fmt.Sprintf("k%d", i))
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / ops
	t.Logf("64 KiB lz4 round trip: %.1f KiB allocated/op", perOp/1024)
	if perOp > bound {
		t.Errorf("64 KiB lz4 round trip allocates %.1f KiB/op, want <= %d KiB", perOp/1024, bound>>10)
	}
}

// BenchmarkClientReadBack measures the steady-state read path: one
// resident task decompressed repeatedly, with the arena buffer returned
// via Report.Release each iteration.
func BenchmarkClientReadBack(b *testing.B) {
	c, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 1<<20, 3)
	if _, err := c.Compress(Task{Key: "rb", Data: data}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := c.Decompress("rb")
		if err != nil {
			b.Fatal(err)
		}
		r.Release()
	}
}
