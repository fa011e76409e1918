//go:build linux && !race

package bufpool

import (
	"syscall"
	"unsafe"
)

// residentBytes reports how many bytes of b's pages are resident, by
// mincore(2); ok is false where pages are not released (Go-allocated
// chunks, other systems).
func residentBytes(b []byte) (n int, ok bool) {
	vec := make([]byte, (len(b)+pageSize-1)/pageSize)
	_, _, errno := syscall.Syscall(syscall.SYS_MINCORE,
		uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), uintptr(unsafe.Pointer(&vec[0])))
	if errno != 0 {
		return 0, false
	}
	for _, v := range vec {
		n += int(v&1) * pageSize
	}
	return n, true
}
