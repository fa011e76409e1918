package main

import (
	"bufio"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// allowedImports lists, per source file, the non-stdlib packages it may
// import. Whatever is imported here becomes a signature later changes to
// the program must keep (they may not edit bench/), so the surface is
// deliberately narrow: workload files see only the root package and the
// two input generators, and each layer's probe sees only that layer's
// constructors.
var allowedImports = map[string][]string{
	// The workloads and what drives them.
	"workloads.go":             {"hcompress"},
	"workload_async_ingest.go": {"hcompress"},
	"workload_archive_rw.go":   {"hcompress"},
	"workload_zipf_reread.go":  {"hcompress", "hcompress/internal/workload"},
	"workload_mixed_shards.go": {"hcompress"},
	"corpus.go":                {"hcompress/internal/stats"},
	"driver.go":                {"hcompress", "hcompress/bench/trace"},
	// The harness.
	"main.go":   {"hcompress/bench/trace"},
	"rep.go":    {"hcompress", "hcompress/bench/trace", "hcompress/internal/bufpool"},
	"layers.go": {"hcompress", "hcompress/bench/trace"},
	"e2e.go":    {},
	"stat.go":   {},
	"host.go":   {},
	"spread.go": {},
	// One probe per layer.
	"probe_util.go":      {"hcompress", "hcompress/internal/seed", "hcompress/internal/tier"},
	"probe_analyzer.go":  {"hcompress/internal/analyzer"},
	"probe_core.go":      {"hcompress/internal/analyzer", "hcompress/internal/core", "hcompress/internal/monitor", "hcompress/internal/predictor", "hcompress/internal/seed", "hcompress/internal/store"},
	"probe_predictor.go": {"hcompress/internal/predictor", "hcompress/internal/seed"},
	"probe_monitor.go":   {"hcompress/internal/monitor", "hcompress/internal/store"},
	"probe_fanout.go":    {"hcompress/internal/bufpool", "hcompress/internal/fanout"},
	"probe_codec.go":     {"hcompress/internal/bufpool", "hcompress/internal/codec"},
	"probe_readcache.go": {"hcompress/internal/bufpool", "hcompress/internal/readcache"},
	"probe_store.go":     {"hcompress/internal/bufpool", "hcompress/internal/store"},
	"probe_backend.go":   {"hcompress/internal/store/backend"},
	"probe_durable.go":   {"hcompress", "hcompress/internal/store/backend", "hcompress/internal/store/durable"},
	"probe_bufpool.go":   {"hcompress/internal/bufpool"},
	"probe_router.go":    {"hcompress"},
	"probe_service.go":   {"hcompress", "hcompress/internal/service"},
	"trace/trace.go":     {},
}

// forbiddenCall matches the parts of the program's API that the roadmap
// deletes: post-construction Set* mutators and the X/XCtx/XContext twins.
var forbiddenCall = regexp.MustCompile(`^Set[A-Z]|Ctx$|Context$`)

func TestImportSurface(t *testing.T) {
	files, _ := filepath.Glob("*.go")
	more, _ := filepath.Glob("trace/*.go")
	for _, path := range append(files, more...) {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		allowed, ok := allowedImports[filepath.ToSlash(path)]
		if !ok {
			t.Errorf("%s: not in allowedImports; list what it may import", path)
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		stdlib := map[string]bool{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p != "hcompress" && !strings.HasPrefix(p, "hcompress/") {
				stdlib[filepath.Base(p)] = true
				continue
			}
			if !slices.Contains(allowed, p) {
				t.Errorf("%s imports %s; allowed: %v", path, p, allowed)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, _ := sel.X.(*ast.Ident)
			if pkg != nil && stdlib[pkg.Name] {
				return true
			}
			if forbiddenCall.MatchString(sel.Sel.Name) || (pkg != nil && pkg.Name == "store" && sel.Sel.Name == "New") {
				t.Errorf("%s uses %s: Set* mutators, Ctx/Context twins and store.New are slated for deletion", path, sel.Sel.Name)
			}
			return true
		})
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// smoke runs one shrunken invocation: --seconds 1, one measured rep,
// fixed warm-up and probe counts divided by ten.
func smoke(t *testing.T, workload string, traced bool) *document {
	t.Helper()
	doc, err := run(options{
		workload: workload, seed: 1, seconds: 1, trace: traced,
		root: t.TempDir(), clients: clientCount(), reps: 1, div: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !doc.Correct || doc.Failed != 0 || doc.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, doc.Correct, doc.Attempted, doc.Failed)
	}
	return doc
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkNames asserts got carries exactly the names and units want lists,
// each once.
func checkNames(t *testing.T, what string, got []metric, want []struct{ Name, Unit string }) map[string]float64 {
	t.Helper()
	vals := make(map[string]float64)
	for _, m := range got {
		if _, dup := vals[m.Name]; dup {
			t.Errorf("%s: %s emitted twice", what, m.Name)
		}
		if !metricName.MatchString(m.Name) {
			t.Errorf("%s: bad metric name %q", what, m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s is not a finite number", what, m.Name)
		}
		vals[m.Name] = m.Value
	}
	for _, w := range want {
		if _, ok := vals[w.Name]; !ok {
			t.Errorf("%s: %s is in BENCHMARK.json but was not emitted", what, w.Name)
		}
		if i := slices.IndexFunc(got, func(m metric) bool { return m.Name == w.Name }); i >= 0 && got[i].Unit != w.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, w.Name, got[i].Unit, w.Unit)
		}
	}
	if len(vals) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d", what, len(vals), len(want))
	}
	return vals
}

// checkTrace asserts the span file parses and every parent exists.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type span struct {
		ID, Parent, Req int64
		Name, Layer     string
		Start           int64 `json:"start_ns"`
		End             int64 `json:"end_ns"`
	}
	var spans []span
	ids := make(map[int64]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.ID == 0 || s.Name == "" || s.Layer == "" || s.End < s.Start {
			t.Fatalf("%s: malformed span %+v", path, s)
		}
		ids[s.ID] = true
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("%s: span %d names parent %d, which does not exist", path, s.ID, s.Parent)
		}
	}
}

// TestSmoke runs every workload traced and asserts the contract between
// BENCHMARK.json and what the benchmark emits, plus the selection
// anchors each workload is built on.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	round4 := func(x float64) float64 { return math.Round(x*1e4) / 1e4 }
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			doc := smoke(t, w.Name, true)
			e2e := checkNames(t, "end_to_end", doc.EndToEnd, spec.EndToEnd)
			layer := checkNames(t, "per_layer", doc.PerLayer, spec.PerLayer)
			checkTrace(t, doc.TraceFile)
			for name, v := range e2e {
				if v <= 0 {
					t.Errorf("end-to-end metric %s = %v; it must never be 0", name, v)
				}
			}
			switch w.Name {
			case "async_ingest":
				if layer["codec.share"] >= 0.05 && !raceDetector {
					t.Errorf("codec.share = %.3f, want < 0.05: the codec must be idle here", layer["codec.share"])
				}
				if math.Abs(e2e["stored_per_user_byte"]-1.0003) > 0.001 {
					t.Errorf("stored_per_user_byte = %.4f, want 1.0003: HCDP must pick none", e2e["stored_per_user_byte"])
				}
			case "archive_rw":
				if layer["codec.share"] <= 0.9 && !raceDetector {
					t.Errorf("codec.share = %.3f, want > 0.9: the codec must dominate here", layer["codec.share"])
				}
			case "zipf_reread":
				if h := layer["readcache.hit_frac"]; h <= 0.3 || h >= 0.5 {
					t.Errorf("readcache.hit_frac = %.3f, want within (0.3, 0.5): the median read must be a miss", h)
				}
			case "mixed_shards":
				if layer["router.shard_imbalance"] > 1.5 {
					t.Errorf("router.shard_imbalance = %.3f, want <= 1.5", layer["router.shard_imbalance"])
				}
			}
			if w.Name == "archive_rw" || w.Name == "zipf_reread" {
				// The stored ratio is taken over whole corpus cycles, so a
				// second run of the same seed must agree whatever its
				// operation count.
				again := smoke(t, w.Name, false)
				i := slices.IndexFunc(again.EndToEnd, func(m metric) bool { return m.Name == "stored_per_user_byte" })
				if a, b := round4(e2e["stored_per_user_byte"]), round4(again.EndToEnd[i].Value); a != b {
					t.Errorf("stored_per_user_byte %.4f then %.4f for one seed: the codec selection swings", a, b)
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// → [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 22, 2, 37, 4, 29, 7, 16, 11})
	if q1 != 3.5 || q3 != 31 {
		t.Fatalf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}
