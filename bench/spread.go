package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// spreadMain implements `bench spread <BENCHMARK.json> <results>`: given
// the result lines of several runs of one workload (one JSON object per
// line, as run.sh prints last), it prints per end-to-end metric the
// median, the inter-quartile distance as a share of the median, and the
// bound that share has to stay under — the acceptance rule's own
// arithmetic (Python's statistics.quantiles(values, n=4)).
func spreadMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench spread <BENCHMARK.json> <result-lines-file>")
	}
	raw, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Unit  string  `json:"unit"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	f, err := os.Open(args[1])
	if err != nil {
		return err
	}
	defer f.Close()
	values := make(map[string][]float64)
	runs := 0
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
			return fmt.Errorf("%s: %w", args[1], err)
		}
		if !line.Correct || line.Failed != 0 {
			return fmt.Errorf("%s: run %d is not correct", args[1], runs+1)
		}
		runs++
		for name, m := range line.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	fmt.Printf("| metric | unit | median | iqr/median | bound | bound/3 | ok |\n|---|---|---|---|---|---|---|\n")
	for _, m := range spec.EndToEnd {
		xs := values[m.Name]
		if len(xs) != runs {
			return fmt.Errorf("%s: %d of %d runs carry %s", args[1], len(xs), runs, m.Name)
		}
		q1, q3 := quartiles(xs)
		med := median(xs)
		share := ratio(q3-q1, med)
		limit := m.Bound / 3
		if m.Name == "setup_s" {
			limit = m.Bound
		}
		ok := "yes"
		if share > limit {
			ok = "NO"
		}
		fmt.Printf("| %s | %s | %.6g | %.4f | %.2f | %.4f | %s |\n", m.Name, m.Unit, med, share, m.Bound, m.Bound/3, ok)
	}
	return nil
}
