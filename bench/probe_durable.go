package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"hcompress"
	"hcompress/internal/store/backend"
	"hcompress/internal/store/durable"
)

// diskBytes sums the sizes of the regular files under dir.
func diskBytes(dir string) (n int64) {
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// probeDurable measures the file-backed tier on the filesystem under
// .bench_build/: fsync-per-put appends, checksummed reads, journal
// replay, compaction, and a whole-client close-and-reopen. These are
// real-disk numbers on a shared disk, which is why none of them is a
// bounded end-to-end metric (see README.md, "Not gated").
func probeDurable(e *probeEnv) {
	dir, cleanup := e.scratch("durable")
	defer cleanup()
	n := e.iters(60)
	n = n / 5 * 5

	be := durable.New(dir, durable.Options{})
	if !e.must(be.Open(), "durable.Open") {
		return
	}
	handles := make([]backend.Handle, n)
	e.add("durable.put_us", perOp(n, func(i int) {
		h, err := be.Put(0, fmt.Sprintf("d-%d", i), backend.NewRef(e.sample(i), nil))
		e.must(err, "durable.Put")
		handles[i] = h
	})/1e3, "us", n)
	e.add("durable.peek_us", perOp(n, func(i int) {
		ref, err := be.Peek(0, handles[i])
		if e.must(err, "durable.Peek") {
			e.verify(ref.Data(), e.sample(i), "durable.Peek")
			ref.Release()
		}
	})/1e3, "us", n)
	e.add("durable.write_amp", ratio(float64(diskBytes(dir)), float64(be.Used())), "B/B", n)
	if !e.must(be.Close(), "durable.Close") {
		return
	}

	be = durable.New(dir, durable.Options{})
	start := time.Now()
	if !e.must(be.Open(), "durable reopen") {
		return
	}
	e.add("durable.open_ms_per_1k", float64(time.Since(start))/1e6/float64(n)*1000, "ms", n)
	rec := be.Recovered()
	e.attempted++
	if len(rec) != n {
		e.must(fmt.Errorf("recovered %d of %d payloads", len(rec), n), "durable replay")
	}
	for i, r := range rec {
		if i%2 == 0 {
			be.Delete(r.Handle)
		}
	}
	start = time.Now()
	e.must(be.Compact(), "durable.Compact")
	e.add("durable.compact_ms", float64(time.Since(start))/1e6, "ms", 1)
	e.must(be.Close(), "durable.Close")

	e.add("durable.reopen_ms", e.clientReopen(filepath.Join(dir, "client")), "ms", 1)
}

// clientReopen populates an all-file hierarchy through the root API,
// closes it, times hcompress.New on the populated DataDir, and reads
// every key back against what was written.
func (e *probeEnv) clientReopen(dataDir string) float64 {
	cfg := e.def.config()
	cfg.DataDir = dataDir
	cfg.DemotionInterval = 0
	for i := range cfg.Tiers {
		cfg.Tiers[i].Backend = "file"
	}
	c, err := hcompress.New(cfg)
	if !e.must(err, "hcompress.New on file tiers") {
		return 0
	}
	n := e.iters(40)
	for i := 0; i < n; i++ {
		_, err := c.Compress(hcompress.Task{Key: fmt.Sprintf("r-%d", i), Data: e.sample(i)})
		e.must(err, "Compress on file tiers")
	}
	if !e.must(c.Close(), "Close on file tiers") {
		return 0
	}
	start := time.Now()
	c, err = hcompress.New(cfg)
	ms := float64(time.Since(start)) / 1e6
	if !e.must(err, "hcompress.New on a populated DataDir") {
		return 0
	}
	for i := 0; i < n; i++ {
		rep, err := c.Decompress(fmt.Sprintf("r-%d", i))
		if e.must(err, "Decompress after reopen") {
			e.verify(rep.Data, e.sample(i), "durable.reopen")
			rep.Release()
		}
	}
	e.must(c.Close(), "Close after reopen")
	return ms
}
