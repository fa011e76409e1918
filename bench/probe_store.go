package main

import (
	"fmt"

	"hcompress/internal/bufpool"
	"hcompress/internal/store"
)

// probeStore times the tiered store's four data operations on
// payload-retaining in-memory tiers, with arena-owned payloads of the
// workload's block size as the Compression Manager hands them over.
func probeStore(e *probeEnv) {
	st, err := store.Open(e.hierarchy(), store.Options{KeepData: true})
	if !e.must(err, "store.Open") {
		return
	}
	defer st.Close()
	src := e.sample(0)
	size := int64(len(src))
	n := e.iters(min(2000, int(e.hierarchy().Tiers[0].Capacity/size/5*5)))
	key := func(i int) string { return fmt.Sprintf("p-%d", i) }

	e.add("store.put_us", perOp(n, func(i int) {
		buf := bufpool.Get(len(src))
		copy(buf, src)
		if _, err := st.PutOwned(0, 0, key(i), buf, size); err != nil {
			bufpool.Put(buf)
			e.must(err, "store.PutOwned")
		}
	})/1e3, "us", n)
	e.add("store.get_us", perOp(n, func(i int) {
		b, _, err := st.Get(0, key(i))
		if e.must(err, "store.Get") && i%64 == 0 {
			e.verify(b.Data, src, "store.Get")
		}
	})/1e3, "us", n)
	e.add("store.move_us", perOp(n, func(i int) {
		_, err := st.Move(0, key(i), 1)
		e.must(err, "store.Move")
	})/1e3, "us", n)
	e.add("store.delete_us", perOp(n, func(i int) { e.must(st.Delete(key(i)), "store.Delete") })/1e3, "us", n)
}
