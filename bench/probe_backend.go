package main

import "hcompress/internal/store/backend"

// probeBackend times the in-memory payload backend on its own: the floor
// under every store put and read.
func probeBackend(e *probeEnv) {
	mem := backend.NewMem()
	defer mem.Close()
	src := e.sample(0)
	n := e.iters(100000)
	handles := make([]backend.Handle, 0, n)
	e.add("backend.mem.put_ns", perOp(n, func(int) {
		h, err := mem.Put(0, "k", backend.NewRef(src, nil))
		e.must(err, "backend.Mem.Put")
		handles = append(handles, h)
	}), "ns", n)
	e.add("backend.mem.peek_ns", perOp(n, func(i int) {
		ref, err := mem.Peek(0, handles[i%len(handles)])
		if e.must(err, "backend.Mem.Peek") {
			ref.Release()
		}
	}), "ns", n)
}
