package main

import "testing"

// TestRunFigureMode drives the one mode hcbench has left: a named figure
// renders, and the two inputs run() rejects are rejected.
func TestRunFigureMode(t *testing.T) {
	if err := run("fig4a", 256, false, ""); err != nil {
		t.Fatalf("run(fig4a): %v", err)
	}
	if err := run("fig99", 256, false, ""); err == nil {
		t.Error("unknown -exp name did not error")
	}
	if err := run("fig4a", 0, false, ""); err == nil {
		t.Error("-scale 0 did not error")
	}
}
