package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// Regenerate after an intentional change to a modeled figure:
//
//	go test ./internal/experiments -run TestModeledFigureTablesGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/figs_scale256.golden from this build's figure harness")

// TestModeledFigureTablesGolden pins the rendered bytes of every figure
// that runs on the virtual clock (Figs. 1, 5, 6, 7, 8; Figs. 3/4 print
// wall-clock measurements and stay out). A refactor of the harness, the
// manager or the engine that is meant to change no behaviour must leave
// this file alone.
func TestModeledFigureTablesGolden(t *testing.T) {
	const scale = 256
	figs := []func() (Table, error){
		func() (Table, error) { return Fig1Motivation(PaperFig1(scale)) },
		func() (Table, error) { return Fig5CompressionOnTiering(PaperFig5(scale)) },
		func() (Table, error) { return Fig6TieringOnCompression(PaperFig6(scale)) },
		func() (Table, error) { return Fig7VPIC(PaperFig7(scale)) },
		func() (Table, error) { return Fig8Workflow(PaperFig8(scale)) },
	}
	var got bytes.Buffer
	for i, fn := range figs {
		tb, err := fn()
		if err != nil {
			t.Fatalf("figure %d: %v", i, err)
		}
		tb.Fprint(&got)
	}

	path := filepath.Join("testdata", "figs_scale256.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("modeled figure tables differ from %s\n--- got ---\n%s\n--- want ---\n%s", path, got.Bytes(), want)
	}
}
