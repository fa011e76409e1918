//go:build !race

package experiments

// raceDetectorEnabled is false without -race; see racetag_on_test.go.
const raceDetectorEnabled = false
