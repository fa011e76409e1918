//go:build race

package experiments

// raceDetectorEnabled gates wall-clock assertions: the race detector
// slows instrumented code by a large, uneven factor, so throughput
// floors are meaningless under it.
const raceDetectorEnabled = true
