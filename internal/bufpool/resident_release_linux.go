//go:build linux && !race

package bufpool

import "syscall"

// releasePages hands b's pages back to the kernel; the mapping stays, and
// the next touch maps fresh zero pages.
func releasePages(b []byte) {
	_ = syscall.Madvise(b, syscall.MADV_DONTNEED) // a failed release leaves the pages resident, nothing worse
}
