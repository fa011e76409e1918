// Command bench is the repository's benchmark: one workload per
// invocation, end-to-end metrics from untraced reps, per-layer metrics
// from a separate traced run. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hcompress/bench/trace"
)

// metric is one named value with its unit; N is the number of samples
// (calls, reps or probe iterations) behind it.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// options is one invocation's arguments. reps and div are fixed by main
// (5 measured reps, or 2 beside a traced one; div 1); the smoke test
// shrinks them so it finishes in seconds.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root: .bench_build/ and bench/out/ live under it
	clients  int
	reps     int // measured reps
	div      int // divides the fixed warm-up and probe iteration counts
}

func (o options) buildDir() string { return filepath.Join(o.root, ".bench_build") }
func (o options) outDir() string   { return filepath.Join(o.root, "bench", "out") }

// timedSections is how many timed sections share --seconds: the five
// measured reps of an untraced run.
const timedSections = 5

// document is everything one invocation measured, written as JSON to
// bench/out/ and summarised on stdout.
type document struct {
	Workload string    `json:"workload"`
	Why      string    `json:"why"`
	Seconds  float64   `json:"seconds"`
	Trace    bool      `json:"trace"`
	Host     hostBlock `json:"host"`
	// Host facts, not metrics: the calibration kernel before set-up, its
	// relative change after the last rep, and the hypervisor's steal
	// share over the run. They tell a noisy neighbour from a regression.
	HostCalibMs    float64 `json:"host_calib_ms"`
	HostCalibDrift float64 `json:"host_calib_drift"`
	HostStealFrac  float64 `json:"host_steal_frac"`

	Reps      int              `json:"reps"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	EndToEnd  []metric         `json:"end_to_end"`
	PerLayer  []metric         `json:"per_layer,omitempty"`
	PerRep    []map[string]any `json:"per_rep"`
	CodecMix  map[string]int64 `json:"codec_mix"` // sub-tasks written per codec, measured reps
	Findings  []string         `json:"findings,omitempty"`
	TraceFile string           `json:"trace_file,omitempty"`
}

// run executes one invocation and returns its document. An error means
// the benchmark could not run; wrong bytes are reported through
// Correct/Failed instead.
func run(o options) (*document, error) {
	def, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(o.buildDir(), 0o755); err != nil {
		return nil, err
	}
	doc := &document{
		Workload: def.name, Why: def.why, Seconds: o.seconds, Trace: o.trace,
		Host: newHostBlock(o), Reps: o.reps,
	}
	doc.HostCalibMs = calibrate()
	total0, steal0 := cpuTimes()

	corp := newCorpus(o.seed, def.sizes)
	dur := time.Duration(o.seconds / timedSections * float64(time.Second))

	// One discarded rep first: page faults, heap sizing and lazy
	// initialisation land here, not in the first measured rep.
	warm, err := runRep(def, corp, o, repSpec{dur: min(dur, 500*time.Millisecond)})
	if err != nil {
		return nil, err
	}
	doc.tally(warm)
	reps := make([]*repResult, 0, o.reps)
	for i := 0; i < o.reps; i++ {
		r, err := runRep(def, corp, o, repSpec{dur: dur})
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		doc.tally(r)
	}
	doc.EndToEnd = endToEnd(reps)
	doc.PerRep = perRep(reps)
	doc.CodecMix = make(map[string]int64)
	for _, r := range reps {
		for k, v := range r.m.codecs {
			doc.CodecMix[k] += v
		}
	}

	if o.trace {
		if err := os.MkdirAll(o.outDir(), 0o755); err != nil {
			return nil, err
		}
		tr := trace.New()
		traced, err := runRep(def, corp, o, repSpec{dur: dur, tr: tr})
		if err != nil {
			return nil, err
		}
		doc.tally(traced)
		env := &probeEnv{def: def, o: o, corp: corp, dur: dur}
		doc.PerLayer = perLayer(env, reps, traced, tr)
		doc.Attempted += env.attempted
		doc.Failed += env.failed
		doc.Findings = env.findings
		doc.TraceFile = filepath.Join(o.outDir(), "trace-"+def.name+".jsonl")
		if err := tr.WriteJSONL(doc.TraceFile); err != nil {
			return nil, err
		}
	}

	if !corp.intact() {
		doc.Failed++
		doc.Findings = append(doc.Findings, "a corpus buffer changed during the run: the program wrote into a caller's buffer")
	}
	after := calibrate()
	doc.HostCalibDrift = ratio(after-doc.HostCalibMs, doc.HostCalibMs)
	total1, steal1 := cpuTimes()
	doc.HostStealFrac = ratio(steal1-steal0, total1-total0)
	// peak_rss_mb is read last so that it covers the whole run.
	for i := range doc.EndToEnd {
		if doc.EndToEnd[i].Name == "peak_rss_mb" {
			doc.EndToEnd[i].Value = peakRSSMB()
		}
	}
	doc.Correct = doc.Failed == 0
	return doc, nil
}

// tally adds one rep's attempted and failed items, set-up included.
func (doc *document) tally(r *repResult) {
	doc.Attempted += r.setupAttempted + r.m.attempted
	doc.Failed += r.setupFailed + r.m.failed
}

// print writes the human-readable summary, the JSON document, and — as
// the last line of stdout — the result line of the driver's contract.
func (doc *document) print(o options) error {
	host, _ := json.Marshal(doc.Host)
	fmt.Fprintf(os.Stderr, "host %s host_calib_ms=%.2f host_calib_drift=%+.3f host_steal_frac=%.4f\n",
		host, doc.HostCalibMs, doc.HostCalibDrift, doc.HostStealFrac)
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%v reps=%d clients=%d (closed loop) commit=%s\n",
		doc.Workload, o.seed, o.seconds, o.trace, doc.Reps, o.clients, doc.Host.Commit)
	fmt.Printf("# host %s\n", host)
	for _, m := range doc.EndToEnd {
		fmt.Printf("%-28s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	for _, m := range doc.PerLayer {
		fmt.Printf("%-28s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	fmt.Printf("%-28s %14d\n%-28s %14d\n", "attempted", doc.Attempted, "failed", doc.Failed)
	for _, f := range doc.Findings {
		fmt.Printf("# finding: %s\n", f)
	}

	if err := os.MkdirAll(o.outDir(), 0o755); err != nil {
		return err
	}
	body, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	tag := 0
	if o.trace {
		tag = 1
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", doc.Workload, o.seed, tag)
	if err := os.WriteFile(filepath.Join(o.outDir(), name), body, 0o644); err != nil {
		return err
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{doc.Correct, doc.Attempted, doc.Failed, make(map[string]value)}
	final := doc.EndToEnd
	if o.trace {
		final = doc.PerLayer
	}
	for _, m := range final {
		last.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		if err := spreadMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench spread:", err)
			os.Exit(2)
		}
		return
	}
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 28, "seconds of timed sections, shared by the measured reps")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics and bench/out/trace-<workload>.jsonl")
	flag.StringVar(&o.root, "root", ".", "checkout root")
	flag.Parse()
	o.trace = traceFlag != 0
	o.clients = clientCount()
	o.reps, o.div = timedSections, 1
	if o.trace {
		// The traced run spends its time on the traced rep and the
		// probes; two untraced reps give tracing overhead its baseline.
		o.reps = 2
	}
	if o.seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: need --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	doc, err := run(o)
	if err == nil {
		err = doc.print(o)
	}
	if err == nil && !doc.Correct {
		err = errors.New("incorrect output: see FAILED on stderr")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
