package hcompress

// One testing.B benchmark per table and figure of the paper's evaluation,
// plus ablation benches for the design choices DESIGN.md calls out. Each
// figure bench executes the corresponding experiment harness at a reduced
// scale and reports domain metrics (task throughput, speedup) alongside
// ns/op; run `go test -bench=. -benchmem` or use cmd/hcbench for the
// full tables.

import (
	"io"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"hcompress/internal/analyzer"
	"hcompress/internal/codec"
	"hcompress/internal/core"
	"hcompress/internal/experiments"
	"hcompress/internal/manager"
	"hcompress/internal/monitor"
	"hcompress/internal/predictor"
	"hcompress/internal/seed"
	"hcompress/internal/stats"
	"hcompress/internal/store"
	"hcompress/internal/tier"
)

const benchScale = 256 // divide paper scale in benches; hcbench -exp runs bigger

func BenchmarkFig1Motivation(b *testing.B) {
	o := experiments.PaperFig1(benchScale)
	o.Timesteps = 4
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1Motivation(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3Anatomy(b *testing.B) {
	o := experiments.Fig3Options{Tasks: 32, TaskSize: 1 << 20}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3Anatomy(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4aHCDPEngine(b *testing.B) {
	o := experiments.Fig4aOptions{Plans: 2048}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4aEngine(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4bCCP(b *testing.B) {
	o := experiments.Fig4bOptions{Tasks: 1024, TaskSize: 1 << 20, PerturbFrac: 0.25}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4bCCP(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5CompressionOnTiering(b *testing.B) {
	o := experiments.PaperFig5(benchScale)
	o.TasksPerRank = 64
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5CompressionOnTiering(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6TieringOnCompression(b *testing.B) {
	o := experiments.PaperFig6(benchScale)
	o.TasksPerRank = 32
	o.Codecs = []string{"pithy", "snappy", "brotli", "bsc"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6TieringOnCompression(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7VPIC(b *testing.B) {
	o := experiments.PaperFig7(benchScale)
	o.Ranks = []int{2560}
	o.Timesteps = 4
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7VPIC(o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Workflow(b *testing.B) {
	o := experiments.PaperFig8(benchScale)
	o.Ranks = []int{2560}
	o.Timesteps = 4
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8Workflow(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Priorities covers Table II: planning cost under each
// priority preset (the presets themselves are exercised for correctness in
// the unit tests and the priorities example).
func BenchmarkTable2Priorities(b *testing.B) {
	for _, pr := range []struct {
		name string
		w    seed.Weights
	}{
		{"async", PriorityAsync.toWeights()},
		{"archival", PriorityArchival.toWeights()},
		{"read-after-write", PriorityReadAfterWrite.toWeights()},
		{"equal", seed.WeightsEqual},
	} {
		b.Run(pr.name, func(b *testing.B) {
			h := tier.Ares(tier.GB, tier.GB, tier.GB, tier.TB)
			st, _ := store.Open(h, store.Options{})
			eng, err := core.New(predictor.New(seed.Builtin(h)), monitor.New(st, 1e9),
				core.Config{Weights: pr.w})
			if err != nil {
				b.Fatal(err)
			}
			attr := analyzer.Result{Type: stats.TypeInt, Dist: stats.Gamma}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Plan(0, attr, 1<<20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- ablations (DESIGN.md §5) ---

// BenchmarkAblationMemo measures the amortized-planning claim: with the
// plan cache a repeated task costs a lookup; without it every plan
// re-runs the Match/Place recursion.
func BenchmarkAblationMemo(b *testing.B) {
	for _, cached := range []bool{true, false} {
		name := "memo-on"
		if !cached {
			name = "memo-off"
		}
		b.Run(name, func(b *testing.B) {
			h := tier.Ares(8*tier.MB, 32*tier.MB, 128*tier.MB, tier.TB)
			st, _ := store.Open(h, store.Options{})
			eng, err := core.New(predictor.New(seed.Builtin(h)), monitor.New(st, 1e9),
				core.Config{Weights: seed.WeightsEqual, DisablePlanCache: !cached})
			if err != nil {
				b.Fatal(err)
			}
			attr := analyzer.Result{Type: stats.TypeFloat, Dist: stats.Gamma}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Plan(0, attr, 64<<20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAlignment measures the 4096-byte sub-task alignment
// choice: coarser quanta reduce DP states, finer quanta increase them.
// (The production engine fixes align = 4096; this bench varies how many
// distinct task sizes arrive instead: a few fit the plan cache, and
// thousands make every plan a full DP over aligned sub-problems.)
func BenchmarkAblationAlignment(b *testing.B) {
	h := tier.Ares(8*tier.MB, 32*tier.MB, 128*tier.MB, tier.TB)
	st, _ := store.Open(h, store.Options{})
	eng, err := core.New(predictor.New(seed.Builtin(h)), monitor.New(st, 1e9),
		core.Config{Weights: seed.WeightsEqual})
	if err != nil {
		b.Fatal(err)
	}
	attr := analyzer.Result{Type: stats.TypeFloat, Dist: stats.Gamma}
	for _, spread := range []int{1, 64, 4096} {
		b.Run("distinct-sizes-"+strconv.Itoa(spread), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// spread distinct task sizes, each its own plan-cache
				// entry.
				size := int64(4<<20 + (i%spread)*4096) // 4096: the HCDP sub-task alignment
				if _, err := eng.Plan(0, attr, size); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPlaceOrder contrasts compress-then-place (HCompress)
// with Hermes's place-then-compress under capacity pressure: the metric of
// interest is the reported makespan, surfaced via b.ReportMetric.
func BenchmarkAblationPlaceOrder(b *testing.B) {
	// Keep the paper's 128 tasks/rank: the data volume must exceed the
	// fast tiers or placement order cannot matter.
	o := experiments.PaperFig5(benchScale)
	for i := 0; i < b.N; i++ {
		tb, err := experiments.Fig5CompressionOnTiering(o)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var hc, zlib float64
			for _, row := range tb.Rows {
				var t float64
				if _, err := fmtSscan(row[6], &t); err != nil {
					continue
				}
				switch row[0] {
				case "HCompress":
					hc = t
				case "zlib":
					zlib = t
				}
			}
			if hc > 0 {
				b.ReportMetric(zlib/hc, "place-order-speedup")
			}
		}
	}
}

// BenchmarkAblationFeedback measures CCP accuracy with and without the
// reinforcement feedback loop under a mis-seeded model.
func BenchmarkAblationFeedback(b *testing.B) {
	for _, fb := range []bool{true, false} {
		name := "feedback-on"
		if !fb {
			name = "feedback-off"
		}
		b.Run(name, func(b *testing.B) {
			h := tier.Ares(tier.GB, tier.GB, tier.GB, tier.TB)
			truth := seed.Builtin(h)
			var lastAcc float64
			for i := 0; i < b.N; i++ {
				wrong := seed.Builtin(h)
				for k, c := range wrong.Costs {
					c.CompressMBps *= 1.5
					c.Ratio = 1 + (c.Ratio-1)*0.6
					wrong.Costs[k] = c
				}
				wrong.FeedbackInterval = 32
				ccp := predictor.New(wrong)
				oracle := manager.ModelOracle{Truth: truth}
				for task := 0; task < 512; task++ {
					hdr := manager.Header{Offset: int64(task) * 4096, Length: 1 << 20}
					cdc := mustCodec(b, "snappy")
					_, stored, secs, err := oracle.Compress(
						nil, analyzer.Result{Type: stats.TypeInt, Dist: stats.Gamma}, cdc, nil, 1<<20, hdr)
					if err != nil {
						b.Fatal(err)
					}
					if fb {
						ccp.Feedback(stats.TypeInt, stats.Gamma, "snappy", seed.CodecCost{
							CompressMBps: 1.0 / secs,
							Ratio:        float64(int64(1<<20)) / float64(stored),
						})
					}
				}
				ccp.Flush()
				// Accuracy of the final model against truth.
				pred, _ := ccp.Predict(stats.TypeInt, stats.Gamma, "snappy")
				want, _ := truth.Lookup(stats.TypeInt, stats.Gamma, "snappy")
				err := pred.CompressMBps/want.CompressMBps - 1
				if err < 0 {
					err = -err
				}
				lastAcc = 1 - err
			}
			b.ReportMetric(lastAcc*100, "final-accuracy-%")
		})
	}
}

// BenchmarkAblationLoadAware measures the optional queue-backlog term.
func BenchmarkAblationLoadAware(b *testing.B) {
	for _, la := range []bool{false, true} {
		name := "load-blind"
		if la {
			name = "load-aware"
		}
		b.Run(name, func(b *testing.B) {
			h := tier.Ares(tier.GB, tier.GB, tier.GB, tier.TB)
			st, _ := store.Open(h, store.Options{})
			eng, err := core.New(predictor.New(seed.Builtin(h)), monitor.New(st, 0),
				core.Config{Weights: seed.WeightsEqual, LoadAware: la})
			if err != nil {
				b.Fatal(err)
			}
			attr := analyzer.Result{Type: stats.TypeInt, Dist: stats.Gamma}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Plan(float64(i)*1e-5, attr, 1<<20); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClientWrite measures the end-to-end public API on real data.
func BenchmarkClientWrite(b *testing.B) {
	for _, class := range []struct {
		name string
		dt   stats.DataType
	}{{"text", stats.TypeText}, {"float", stats.TypeFloat}, {"int", stats.TypeInt}} {
		b.Run(class.name, func(b *testing.B) {
			c, err := New(Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			data := stats.GenBuffer(class.dt, stats.Gamma, 1<<20, 3)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				key := "bench-" + strconv.Itoa(i)
				if _, err := c.Compress(Task{Key: key, Data: data}); err != nil {
					b.Fatal(err)
				}
				if err := c.Delete(key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClientParallel measures concurrent write+read+delete cycles
// through a single shared Client with b.RunParallel. Under the seed's
// global pipeline lock this could not scale past 1x; the staged pipeline
// (lock-free analysis, RW-locked planner memo, per-tier store locks)
// lets independent tasks overlap their codec work. Compare against
// BenchmarkClientWrite, or run with -cpu 1,2,8 to see scaling.
func BenchmarkClientParallel(b *testing.B) {
	benchClientParallel(b, Config{})
}

// BenchmarkClientParallelTelemetry is the telemetry overhead gate: same
// workload as BenchmarkClientParallel but with the metrics registry on.
// The instruments are atomics handed out at construction, so the delta
// against the plain benchmark should stay within noise (<5%).
func BenchmarkClientParallelTelemetry(b *testing.B) {
	benchClientParallel(b, Config{EnableTelemetry: true})
}

// BenchmarkClientParallelFullObs measures the complete observability
// stack under load: metrics registry, span-tree export (to a discarded
// writer), stage-attribution histograms, and threshold+sampled slow-op
// logging. Compare against BenchmarkClientParallel for the total
// tracing overhead; TestObservabilityOverheadGate enforces the bound.
func BenchmarkClientParallelFullObs(b *testing.B) {
	benchClientParallel(b, Config{
		EnableTelemetry:   true,
		TraceWriter:       io.Discard,
		SlowOpThreshold:   50 * time.Millisecond,
		SlowOpSampleEvery: 32,
	})
}

func benchClientParallel(b *testing.B, cfg Config) {
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 1<<20, 3)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	var worker int64
	b.RunParallel(func(pb *testing.PB) {
		id := atomic.AddInt64(&worker, 1)
		i := 0
		for pb.Next() {
			key := "par-" + strconv.FormatInt(id, 10) + "-" + strconv.Itoa(i)
			if _, err := c.Compress(Task{Key: key, Data: data}); err != nil {
				b.Fatal(err)
			}
			if _, err := c.Decompress(key); err != nil {
				b.Fatal(err)
			}
			if err := c.Delete(key); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

func fmtSscan(s string, v *float64) (int, error) {
	var err error
	*v, err = strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	return 1, nil
}

func mustCodec(b *testing.B, name string) codec.Codec {
	b.Helper()
	c, err := codec.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkAblationDrain contrasts Fig. 7 with and without asynchronous
// draining during compute windows, reporting the HC makespan ratio.
func BenchmarkAblationDrain(b *testing.B) {
	// Drain is wired into the experiment harness; the ablation compares
	// against zero-length compute windows (drain has no window to run in).
	base := experiments.PaperFig7(benchScale)
	base.Ranks = []int{2560}
	base.Timesteps = 4
	for i := 0; i < b.N; i++ {
		tb, err := experiments.Fig7VPIC(base)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range tb.Rows {
				if row[1] == "HC" {
					var t float64
					if _, err := fmtSscan(row[2], &t); err == nil {
						b.ReportMetric(t, "hc-makespan-s")
					}
				}
			}
		}
	}
}
