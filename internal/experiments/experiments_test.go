package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	s = strings.TrimSuffix(s, "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func findRow(tb Table, match func(row []string) bool) []string {
	for _, r := range tb.Rows {
		if match(r) {
			return r
		}
	}
	return nil
}

func TestTableFprint(t *testing.T) {
	tb := Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "333", "a note", "--"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig1Shape(t *testing.T) {
	o := PaperFig1(256)
	o.Timesteps = 4
	tb, err := Fig1Motivation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 9 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	get := func(name string) []string {
		r := findRow(tb, func(r []string) bool { return r[0] == name })
		if r == nil {
			t.Fatalf("missing scenario %s", name)
		}
		return r
	}
	base := parseF(t, get("none/pfs")[3])
	hermes := parseF(t, get("none/hermes")[3])
	bzipPFS := parseF(t, get("bzip2/pfs")[3])
	brotliPFS := parseF(t, get("brotli/pfs")[3])
	brotliHermes := parseF(t, get("brotli/hermes")[3])
	hc := parseF(t, get("multicomp/hermes (HCompress)")[3])
	if hermes >= base {
		t.Errorf("multi-tier buffering must beat PFS: %v vs %v", hermes, base)
	}
	// bzip2 pays far more compression time than brotli for its ratio.
	// (In the paper bzip2 achieves NO reduction on VPIC floats and loses
	// outright; our synthetic floats are mildly BWT-compressible, so
	// bzip2 merely underperforms — see EXPERIMENTS.md.)
	bzipComp := parseF(t, get("bzip2/pfs")[1])
	brotliComp := parseF(t, get("brotli/pfs")[1])
	if bzipComp <= brotliComp {
		t.Errorf("bzip2 compression time %v should exceed brotli's %v", bzipComp, brotliComp)
	}
	if bzipPFS < brotliPFS*0.9 {
		t.Errorf("bzip2 (%v) should not meaningfully beat brotli (%v) on PFS", bzipPFS, brotliPFS)
	}
	// The combined configuration beats buffering alone.
	if brotliHermes >= hermes {
		t.Errorf("compression+tiering should beat tiering alone: %v vs %v", brotliHermes, hermes)
	}
	if hc > brotliHermes*1.1 {
		t.Errorf("HCompress %v should be at least competitive with best fixed combo %v", hc, brotliHermes)
	}
}

func TestFig3Anatomy(t *testing.T) {
	tb, err := Fig3Anatomy(Fig3Options{Tasks: 40, TaskSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	// The HCDP engine and feedback must be a small fraction of the write
	// path (paper: <2% combined); codec+io dominate.
	engine := parseF(t, tb.Rows[0][1])
	feedback := parseF(t, tb.Rows[3][1])
	codecPct := parseF(t, tb.Rows[2][1])
	ioPct := parseF(t, tb.Rows[4][1])
	if engine+feedback > 20 {
		t.Errorf("engine+feedback = %.1f%%, should be minor", engine+feedback)
	}
	if codecPct+ioPct < 75 {
		t.Errorf("codec+io = %.1f%%, should dominate", codecPct+ioPct)
	}
}

func TestFig4aShape(t *testing.T) {
	tb, err := Fig4aEngine(Fig4aOptions{Plans: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	// Small tasks map to a single sub-task; 64MB must split (the
	// capacities force it) — the paper's throughput knee.
	if small := tb.Rows[0]; small[2] != "1" {
		t.Errorf("4KB task should not split: %v", small)
	}
	if big := tb.Rows[len(tb.Rows)-1]; big[2] == "1" {
		t.Errorf("64MB task should split: %v", big)
	}
	// Memoized planning throughput should exceed 100K plans/sec for
	// small tasks even on modest hardware. The rate is wall-clock, so it
	// is not asserted under the race detector's instrumentation.
	if tput := parseF(t, tb.Rows[0][1]); tput < 1e5 && !raceDetectorEnabled {
		t.Errorf("plan throughput %v too low", tput)
	}
}

func TestFig4bShape(t *testing.T) {
	tb, err := Fig4bCCP(Fig4bOptions{Tasks: 2000, TaskSize: 1 << 20, PerturbFrac: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		acc := parseF(t, row[1])
		if acc < 85 {
			t.Errorf("%s: accuracy %.1f%% after feedback, want high", row[0], acc)
		}
		if tput := parseF(t, row[2]); tput < 1000 {
			t.Errorf("%s: feedback throughput %v too low", row[0], tput)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	o := PaperFig5(256) // paper's 128 tasks/rank: data must outgrow RAM+NVMe
	tb, err := Fig5CompressionOnTiering(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 14 { // none + 12 codecs + HCompress
		t.Fatalf("rows %d", len(tb.Rows))
	}
	none := findRow(tb, func(r []string) bool { return r[0] == "none" })
	hc := findRow(tb, func(r []string) bool { return r[0] == "HCompress" })
	if none == nil || hc == nil {
		t.Fatal("missing rows")
	}
	noneTime := parseF(t, none[6])
	hcTime := parseF(t, hc[6])
	if hcTime >= noneTime {
		t.Errorf("HCompress %v must beat no-compression %v", hcTime, noneTime)
	}
	// HCompress must also beat every fixed library (the >=1.72x claim;
	// we only assert the ordering).
	for _, row := range tb.Rows {
		if row[0] == "HCompress" || row[0] == "none" {
			continue
		}
		if v := parseF(t, row[6]); v < hcTime*0.98 {
			t.Errorf("fixed library %s (%vs) beat HCompress (%vs)", row[0], v, hcTime)
		}
	}
	// Footprint: HCompress total footprint below none's.
	if parseF(t, hc[5]) >= parseF(t, none[5]) {
		t.Errorf("HCompress footprint %v should undercut uncompressed %v", hc[5], none[5])
	}
}

func TestFig6Shape(t *testing.T) {
	o := PaperFig6(256)
	o.TasksPerRank = 64
	o.Codecs = []string{"pithy", "snappy", "brotli", "bsc"}
	tb, err := Fig6TieringOnCompression(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	// Fast codecs must be tier-sensitive; heavy codecs flat.
	get := func(name string) []string {
		r := findRow(tb, func(r []string) bool { return r[0] == name })
		if r == nil {
			t.Fatalf("missing %s", name)
		}
		return r
	}
	pithy := get("pithy")
	bsc := get("bsc")
	pithyRAM, pithyBB := parseF(t, pithy[1]), parseF(t, pithy[3])
	bscRAM, bscBB := parseF(t, bsc[1]), parseF(t, bsc[3])
	if pithyRAM/pithyBB < 1.5 {
		t.Errorf("pithy should be tier-sensitive: ram %v bb %v", pithyRAM, pithyBB)
	}
	if bscRAM/bscBB > 1.5 {
		t.Errorf("bsc should be tier-insensitive: ram %v bb %v", bscRAM, bscBB)
	}
	// HCompress beats every library on the multi-tier column.
	hc := parseF(t, get("HCompress")[4])
	for _, name := range o.Codecs {
		if v := parseF(t, get(name)[4]); v > hc {
			t.Errorf("%s multi-tier %v beat HCompress %v", name, v, hc)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	o := PaperFig7(256)
	o.Ranks = []int{2560}
	o.Timesteps = 4
	tb, err := Fig7VPIC(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	times := map[string]float64{}
	for _, r := range tb.Rows {
		times[r[1]] = parseF(t, r[2])
	}
	if !(times["HC"] < times["MTNC"] && times["MTNC"] < times["BASE"]) {
		t.Errorf("ordering wrong: %+v", times)
	}
	if !(times["STWC"] < times["BASE"]) {
		t.Errorf("STWC should beat BASE: %+v", times)
	}
	if times["BASE"]/times["HC"] < 3 {
		t.Errorf("HC speedup over BASE %.1fx, paper reports 12x — expect at least 3x", times["BASE"]/times["HC"])
	}
}

func TestFig8Shape(t *testing.T) {
	o := PaperFig8(256)
	o.Ranks = []int{2560}
	o.Timesteps = 4
	tb, err := Fig8Workflow(o)
	if err != nil {
		t.Fatal(err)
	}
	times := map[string]float64{}
	for _, r := range tb.Rows {
		times[r[1]] = parseF(t, r[4])
	}
	if !(times["HC"] < times["STWC"] && times["HC"] < times["MTNC"] && times["MTNC"] < times["BASE"]) {
		t.Errorf("ordering wrong: %+v", times)
	}
}
