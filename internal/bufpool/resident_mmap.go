//go:build unix && !race

package bufpool

import "syscall"

// mapChunk maps 2*chunkSize bytes of anonymous memory, which always
// contains a chunkSize-aligned window. Only the window is ever touched,
// so the rest costs address space, not resident memory.
func mapChunk() ([]byte, error) {
	return syscall.Mmap(-1, 0, 2*chunkSize, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

func unmapChunk(raw []byte) {
	if err := syscall.Munmap(raw); err != nil {
		panic("bufpool: unmap a resident chunk: " + err.Error())
	}
}
