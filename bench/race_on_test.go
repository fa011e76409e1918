//go:build race

package main

// raceDetector is true under -race, which inflates the timings the
// codec.share anchors compare; those two assertions are then skipped.
const raceDetector = true
