//go:build !linux || race

package bufpool

// releasePages is a no-op where the standard library offers no madvise,
// and for Go-allocated chunks: an idle slot keeps its pages until its
// chunk is unmapped.
func releasePages([]byte) {}
