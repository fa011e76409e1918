// Command hctool runs files through the HCompress pipeline from the shell:
// it analyzes the input, plans compression + placement against a simulated
// hierarchy, and reports what the engine decided — useful for inspecting
// codec selection on real data.
//
// Usage:
//
//	hctool file1.dat file2.h5 ...
//	hctool -priorities archival -seed seed.json big.csv
//	hctool -v -trace trace.jsonl big.csv     # decision audit + JSONL trace
//	hctool -slow big.csv                     # per-op stage breakdown table
//	echo "some text" | hctool -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"hcompress"
)

func main() {
	var (
		prio      = flag.String("priorities", "equal", "equal|async|archival|raw (read-after-write)")
		seedPath  = flag.String("seed", "", "profiler seed JSON (default: builtin)")
		verify    = flag.Bool("verify", true, "decompress and verify round-trip")
		verbose   = flag.Bool("v", false, "per-file decision audit: predicted vs actual size and time per sub-task")
		tracePath = flag.String("trace", "", "write the JSONL span/audit trace to this file")
		slow      = flag.Bool("slow", false, "record every operation in the slow-op log and print the stage breakdown table")
		cache     = flag.Float64("cache", 0, "enable the decompressed-block read cache at this fraction of tier 0, verify each file twice so the second read can hit, and print the cache stats table")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: hctool [flags] <file>... (use - for stdin)")
		os.Exit(2)
	}
	p, ok := map[string]hcompress.Priorities{
		"equal":    hcompress.PriorityEqual,
		"async":    hcompress.PriorityAsync,
		"archival": hcompress.PriorityArchival,
		"raw":      hcompress.PriorityReadAfterWrite,
	}[*prio]
	if !ok {
		fmt.Fprintf(os.Stderr, "hctool: unknown priorities %q\n", *prio)
		os.Exit(2)
	}
	cfg := hcompress.Config{Priorities: p, SeedPath: *seedPath, EnableTelemetry: *verbose}
	if *cache > 0 {
		cfg.ReadCacheFraction = *cache
		// First-read admission: a CLI run reads each file only a couple of
		// times, so the two-touch default would never show a hit.
		cfg.ReadCacheMinTouches = 1
	}
	if *slow {
		// SampleEvery 1 admits every completed op, so the table shows the
		// full stage anatomy of the run, slow or not.
		cfg.SlowOpSampleEvery = 1
	}
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hctool:", err)
			os.Exit(1)
		}
		traceFile = f
		cfg.TraceWriter = f
	}
	client, err := hcompress.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hctool:", err)
		os.Exit(1)
	}
	defer client.Close()
	if traceFile != nil {
		defer traceFile.Close()
	}

	exit := 0
	for _, path := range flag.Args() {
		if err := process(client, path, *verify, *verbose, *cache > 0); err != nil {
			fmt.Fprintf(os.Stderr, "hctool: %s: %v\n", path, err)
			exit = 1
		}
	}
	if *slow {
		printSlowOps(client)
	}
	if *cache > 0 {
		printCacheStats(client.CacheStats())
	}
	os.Exit(exit)
}

// printSlowOps renders the slow-op log as a stage-breakdown table,
// slowest first: where each operation's wall time went (analyze/plan are
// wall clocks; codec/io/retry are the modeled virtual anatomy).
func printSlowOps(client *hcompress.Client) {
	ops := client.SlowOps()
	if len(ops) == 0 {
		return
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].WallSeconds > ops[j].WallSeconds })
	fmt.Printf("\nslow-op log (%d ops, slowest first):\n", len(ops))
	fmt.Printf("%-10s %-24s %9s %9s %9s %9s %9s %9s %5s %s\n",
		"op", "key", "wall ms", "analyze", "plan", "codec", "io", "retry", "subs", "flags")
	for _, op := range ops {
		flags := ""
		if op.Replanned {
			flags += "R"
		}
		if op.Degraded {
			flags += "D"
		}
		if op.Retries > 0 {
			flags += fmt.Sprintf("r%d", op.Retries)
		}
		key := op.Key
		if len(key) > 24 {
			key = key[:21] + "..."
		}
		fmt.Printf("%-10s %-24s %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f %5d %s\n",
			op.Op, key, op.WallSeconds*1e3, op.AnalyzeSeconds*1e3, op.PlanSeconds*1e3,
			op.CodecSeconds*1e3, op.IOSeconds*1e3, op.RetrySeconds*1e3, len(op.Audits), flags)
	}
}

// printCacheStats renders the read-cache counter table: occupancy,
// hit/miss traffic through the admission gate, and the prefetcher's
// issue/use accounting.
func printCacheStats(st hcompress.CacheStats) {
	hitRatio := 0.0
	if st.Hits+st.Misses > 0 {
		hitRatio = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	fmt.Printf("\nread cache:\n")
	fmt.Printf("  %-22s %d entries, %d / %d bytes\n", "size", st.Entries, st.Bytes, st.Capacity)
	fmt.Printf("  %-22s %d / %d (ratio %.3f)\n", "hits / misses", st.Hits, st.Misses, hitRatio)
	fmt.Printf("  %-22s %d admitted, %d rejected by the touch gate\n", "admissions", st.Admissions, st.Rejects)
	fmt.Printf("  %-22s %d evicted, %d invalidated, %d refreshed\n", "evictions", st.Evictions, st.Invalidations, st.Refreshes)
	fmt.Printf("  %-22s %d issued, %d used, %d failed, %d cancelled\n",
		"prefetch", st.PrefetchIssued, st.PrefetchUsed, st.PrefetchFailed, st.PrefetchCancelled)
}

func process(client *hcompress.Client, path string, verify, verbose, cached bool) error {
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("empty input")
	}
	rep, err := client.Compress(hcompress.Task{Key: path, Data: data})
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d -> %d bytes (ratio %.2f), type=%s dist=%s, modeled %.3fms\n",
		path, rep.OriginalBytes, rep.StoredBytes, rep.Ratio,
		rep.DataType, rep.Distribution, rep.VirtualSeconds*1e3)
	for _, st := range rep.SubTasks {
		fmt.Printf("  %8s via %-8s %d -> %d bytes\n", st.Tier, st.Codec, st.OriginalBytes, st.StoredBytes)
	}
	if verbose {
		printAudits(client, rep)
	}
	if verify {
		// With the cache on, read twice: the first read fills the cache,
		// the second must hit and return byte-identical data.
		passes := 1
		if cached {
			passes = 2
		}
		for p := 0; p < passes; p++ {
			back, err := client.Decompress(path)
			if err != nil {
				return fmt.Errorf("verify: %w", err)
			}
			ok := string(back.Data) == string(data)
			n, hit := len(back.Data), back.CacheHit
			back.Release()
			if !ok {
				return fmt.Errorf("verify: round-trip mismatch (cache hit: %v)", hit)
			}
			if hit {
				fmt.Printf("  verified: %d bytes round-trip OK (served from read cache)\n", n)
			} else {
				fmt.Printf("  verified: %d bytes round-trip OK\n", n)
			}
		}
	}
	return client.Delete(path)
}

// printAudits renders the HCDP decision-audit records for the file just
// written: what the engine predicted for each (codec, tier) choice and
// what actually happened, including spills (planned tier != actual tier).
func printAudits(client *hcompress.Client, rep *hcompress.Report) {
	audits := client.Audits()
	if len(audits) == 0 {
		return
	}
	fmt.Printf("  %-4s %-12s %-8s %14s %14s %9s %9s\n",
		"sub", "tier", "codec", "pred ratio", "actual ratio", "pred ms", "actual ms")
	for _, a := range audits {
		tierName := a.Tier
		if a.PlannedTier != a.Tier {
			tierName = a.PlannedTier + ">" + a.Tier // spilled
		}
		predRatio, actRatio := 0.0, 0.0
		if a.PredBytes > 0 {
			predRatio = float64(a.OrigBytes) / float64(a.PredBytes)
		}
		if a.StoredBytes > 0 {
			actRatio = float64(a.OrigBytes) / float64(a.StoredBytes)
		}
		fmt.Printf("  %-4d %-12s %-8s %14.2f %14.2f %9.3f %9.3f\n",
			a.Sub, tierName, a.Codec, predRatio, actRatio,
			a.PredSeconds*1e3, (a.CodecSeconds+a.IOSeconds)*1e3)
	}
	fmt.Printf("  whole task: predicted %.3fms, modeled %.3fms\n",
		rep.PredictedSeconds*1e3, rep.VirtualSeconds*1e3)
}
