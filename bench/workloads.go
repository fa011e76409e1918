package main

import "hcompress"

// stream is one client's operation sequence over a stack. preload is the
// part of set-up that fills the store; step issues exactly one root-API
// call (plus any deletes that keep the live window bounded).
type stream interface {
	preload()
	step()
}

// workloadDef is one named workload: a configuration, a corpus shape and
// an operation stream. Everything a stream draws — key order, Zipf
// ranks, shuffles, read picks — comes from the driver's seeded rng.
type workloadDef struct {
	name   string
	why    string
	config func() hcompress.Config
	shards int
	sizes  []int // task sizes, cycled per write
	// warmup is the number of calls each rep's set-up issues before the
	// timed section. It is a fixed count, sized to take at least half a
	// second on a 2-vCPU host: a 0.12 s set-up spread 0.27 of its median
	// under a neighbour.
	warmup    int
	newStream func(d *driver, clients int) stream
}

var workloads = []workloadDef{asyncIngest, archiveRW, zipfReread, mixedShards}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// tiers16 is the program's default hierarchy with every capacity ÷16
// (ram 16 MiB / nvme 64 MiB / burstbuffer 256 MiB / pfs 4 GiB), so a
// few tens of MiB of live data already spill past the first tier.
func tiers16() []hcompress.TierSpec {
	tiers := hcompress.DefaultTiers()
	for i := range tiers {
		tiers[i].CapacityBytes /= 16
	}
	return tiers
}

// window is a bounded FIFO of live keys: push appends, and once more
// than limit keys are live the oldest is handed back for deletion.
type window struct {
	live  []entry
	limit int
}

func (w *window) push(e entry) (oldest entry, evict bool) {
	w.live = append(w.live, e)
	if len(w.live) <= w.limit {
		return entry{}, false
	}
	oldest = w.live[0]
	w.live = w.live[1:]
	return oldest, true
}

// windowStream is the op stream async_ingest and archive_rw share: write
// a fresh key, delete the oldest beyond the live window, and make every
// readEvery-th call a uniform read over the window instead. Reads are
// interleaved with writes over the whole section, never a phase at its
// end, so a latency percentile covers the section.
type windowStream struct {
	d         *driver
	win       window
	readEvery int
	calls     int
}

func (s *windowStream) preload() {}

func (s *windowStream) step() {
	s.calls++
	if s.calls%s.readEvery == 0 && len(s.win.live) > 0 {
		s.d.read(s.win.live[s.d.rng.Intn(len(s.win.live))])
		return
	}
	key := s.d.freshKey()
	if old, evict := s.win.push(entry{key, s.d.write(key)}); evict {
		// Every sixteenth deleted key is read again: it must be gone.
		s.d.remove(old.key, s.d.m.deletes%16 == 0)
	}
}
