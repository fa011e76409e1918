//go:build !unix || race

package bufpool

// Without mmap, and under the race detector (which does not watch memory
// the Go runtime did not allocate), chunks are ordinary Go memory: the
// pool still recycles slots and unmaps idle chunks, leaving them to the
// collector.
func mapChunk() ([]byte, error) { return make([]byte, 2*chunkSize), nil }

func unmapChunk([]byte) {}
