// Command abstat prints the paired comparison scripts/ab.sh ends with:
//
//	abstat <BENCHMARK.json> <parent.jsonl> <change.jsonl>
//
// The two files hold one benchmark result line per run (what bench/run.sh
// prints last), in pair order. For every bounded end-to-end metric it
// prints each side's median and quartiles, the median of the per-pair
// change/parent ratios, and how many pairs the change won (ties count
// for neither side) — the statistics the acceptance rule is written in.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func main() {
	if len(os.Args) != 4 {
		fmt.Fprintln(os.Stderr, "usage: abstat <BENCHMARK.json> <parent.jsonl> <change.jsonl>")
		os.Exit(2)
	}
	if err := run(os.Args[1], os.Args[2], os.Args[3]); err != nil {
		fmt.Fprintln(os.Stderr, "abstat:", err)
		os.Exit(1)
	}
}

func run(specPath, parentPath, changePath string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	parent, err := readRuns(parentPath)
	if err != nil {
		return err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return err
	}
	if len(parent) != len(change) || len(parent) == 0 {
		return fmt.Errorf("%d parent runs against %d change runs", len(parent), len(change))
	}
	fmt.Println("| metric | unit | parent median [q1, q3] | change median [q1, q3] | median pair ratio | change wins | bound |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, m := range spec.EndToEnd {
		ps, cs := column(parent, m.Name), column(change, m.Name)
		var ratios []float64
		wins, losses := 0, 0
		for i := range ps {
			if ps[i] != 0 {
				ratios = append(ratios, cs[i]/ps[i])
			}
			switch lower := m.Better == "lower"; {
			case cs[i] == ps[i]:
			case (cs[i] < ps[i]) == lower:
				wins++
			default:
				losses++
			}
		}
		ratio := "n/a"
		if len(ratios) > 0 {
			ratio = fmt.Sprintf("%.3f", quantile(ratios, 2))
		}
		fmt.Printf("| %s | %s | %s | %s | %s | %d/%d (lost %d) | %.2f %s |\n", m.Name, m.Unit,
			summary(ps), summary(cs), ratio, wins, len(ps), losses, m.Bound, m.Better)
	}
	return nil
}

// readRuns parses one result line per run and refuses a run that failed
// an operation or returned wrong bytes: its timings mean nothing.
func readRuns(path string) ([]map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []map[string]float64
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line struct {
			Correct bool `json:"correct"`
			Failed  int  `json:"failed"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("%s: run %d: %w", path, len(runs)+1, err)
		}
		if !line.Correct || line.Failed != 0 {
			return nil, fmt.Errorf("%s: run %d: correct=%v failed=%d", path, len(runs)+1, line.Correct, line.Failed)
		}
		run := make(map[string]float64, len(line.Metrics))
		for name, m := range line.Metrics {
			run[name] = m.Value
		}
		runs = append(runs, run)
	}
	return runs, sc.Err()
}

func column(runs []map[string]float64, name string) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = r[name]
	}
	return xs
}

func summary(xs []float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", quantile(xs, 2), quantile(xs, 1), quantile(xs, 3))
}

// quantile returns the i-th quartile (i = 2 is the median) exactly as
// Python's statistics.quantiles(xs, n=4) does — the "exclusive" method
// the acceptance rule and bench/stat.go use.
func quantile(xs []float64, i int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		return s[0]
	}
	const n = 4
	m := len(s) + 1
	j := min(max(i*m/n, 1), len(s)-1)
	delta := i*m - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
}
