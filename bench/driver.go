package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"hcompress"
	"hcompress/bench/trace"
)

// rootAPI is the slice of the program's root package the benchmark
// drives and reads its counts from. *hcompress.Client and
// *hcompress.Router both provide it.
type rootAPI interface {
	Compress(hcompress.Task) (*hcompress.Report, error)
	Decompress(string) (*hcompress.Report, error)
	Delete(string) error
	CompressBatch([]hcompress.Task) ([]*hcompress.Report, error)
	DecompressBatch([]string) ([]*hcompress.Report, error)
	Stats() hcompress.Stats
	CacheStats() hcompress.CacheStats
	Status() []hcompress.TierStatusReport
	Snapshot() hcompress.MetricsSnapshot
	Close() error
}

// stack is one freshly built program instance.
type stack struct {
	rootAPI
	router *hcompress.Router
}

// openStack builds the program the way a user would: New for one shard,
// NewRouter for several.
func openStack(cfg hcompress.Config, shards int) (*stack, error) {
	if shards == 1 {
		c, err := hcompress.New(cfg)
		if err != nil {
			return nil, err
		}
		return &stack{rootAPI: c, router: c.Router()}, nil
	}
	r, err := hcompress.NewRouter(cfg, shards)
	if err != nil {
		return nil, err
	}
	return &stack{rootAPI: r, router: r}, nil
}

// meter accumulates what one client observed in one section of a rep.
type meter struct {
	cycle int // corpus period, for whole-cycle ratios

	writeLat, readLat []int64 // ns per call
	writes, reads     int64   // items
	hits              int64   // reads served from the read cache
	deletes           int64
	userBytes         int64   // original bytes written + read back
	virtualSec        float64 // Σ Report.VirtualSeconds
	codecWriteSec     float64 // Σ Report.CodecSeconds over writes
	codecReadSec      float64
	callNs            int64 // Σ wall of every root-API call
	subTasks          int64
	degraded          int64
	relErr            []float64 // |predicted − virtual| / virtual per write
	codecs            map[string]int64

	// Stored and original bytes of writes, over whole corpus cycles
	// (cyc*) and over everything (all*); cur* is the cycle in progress.
	cycStored, cycOrig int64
	allStored, allOrig int64
	curStored, curOrig int64
	curN, cycles       int

	shardKeys []int64 // keys written per owning shard

	attempted, failed int64
}

func newMeter(cycle, shards int) *meter {
	return &meter{
		cycle:     cycle,
		writeLat:  make([]int64, 0, 1<<15),
		readLat:   make([]int64, 0, 1<<15),
		codecs:    make(map[string]int64),
		shardKeys: make([]int64, shards),
	}
}

// noteWrite folds the n-th write's report into the counts.
func (m *meter) noteWrite(n int, rep *hcompress.Report) {
	m.writes++
	m.userBytes += rep.OriginalBytes
	m.virtualSec += rep.VirtualSeconds
	m.codecWriteSec += rep.CodecSeconds
	m.subTasks += int64(len(rep.SubTasks))
	for i := range rep.SubTasks {
		m.codecs[rep.SubTasks[i].Codec]++
	}
	if rep.Degraded != nil {
		m.degraded++
	}
	if rep.PredictedSeconds > 0 && rep.VirtualSeconds > 0 {
		d := rep.PredictedSeconds - rep.VirtualSeconds
		if d < 0 {
			d = -d
		}
		m.relErr = append(m.relErr, d/rep.VirtualSeconds)
	}
	m.allStored += rep.StoredBytes
	m.allOrig += rep.OriginalBytes
	m.curStored += rep.StoredBytes
	m.curOrig += rep.OriginalBytes
	m.curN++
	if (n+1)%m.cycle == 0 {
		if m.curN == m.cycle {
			m.cycStored += m.curStored
			m.cycOrig += m.curOrig
			m.cycles++
		}
		m.curStored, m.curOrig, m.curN = 0, 0, 0
	}
}

func (m *meter) noteRead(rep *hcompress.Report) {
	m.reads++
	m.userBytes += int64(len(rep.Data))
	m.virtualSec += rep.VirtualSeconds
	m.codecReadSec += rep.CodecSeconds
	if rep.CacheHit {
		m.hits++
	}
}

// merge adds o's counts into m.
func (m *meter) merge(o *meter) {
	m.writeLat = append(m.writeLat, o.writeLat...)
	m.readLat = append(m.readLat, o.readLat...)
	m.writes += o.writes
	m.reads += o.reads
	m.hits += o.hits
	m.deletes += o.deletes
	m.userBytes += o.userBytes
	m.virtualSec += o.virtualSec
	m.codecWriteSec += o.codecWriteSec
	m.codecReadSec += o.codecReadSec
	m.callNs += o.callNs
	m.subTasks += o.subTasks
	m.degraded += o.degraded
	m.relErr = append(m.relErr, o.relErr...)
	for k, v := range o.codecs {
		m.codecs[k] += v
	}
	m.cycStored += o.cycStored
	m.cycOrig += o.cycOrig
	m.allStored += o.allStored
	m.allOrig += o.allOrig
	m.cycles += o.cycles
	for i, v := range o.shardKeys {
		m.shardKeys[i] += v
	}
	m.attempted += o.attempted
	m.failed += o.failed
}

// storedPerUserByte is Σ stored ÷ Σ original over whole corpus cycles,
// falling back to every write when no cycle completed.
func (m *meter) storedPerUserByte() float64 {
	if m.cycOrig > 0 {
		return float64(m.cycStored) / float64(m.cycOrig)
	}
	return ratio(float64(m.allStored), float64(m.allOrig))
}

// entry is one live key and the bytes a read of it must return.
type entry struct {
	key  string
	want []byte
}

// driver is one closed-loop client: it issues root-API calls one at a
// time, times each, checks every byte read against the corpus, and (in
// the traced rep) wraps each call in a span.
type driver struct {
	st     *stack
	corp   *corpus
	m      *meter
	tr     *trace.Recorder
	rng    *rand.Rand
	prefix string // this client's key namespace
	nWrite int    // writes issued so far; the next carries corp.at(nWrite)
	nKey   int    // fresh keys named so far
	req    int64  // request id of the call in flight, for spans
}

var failLog sync.Once

// fail counts n failed items and reports the first one on stderr.
func (d *driver) fail(n int, format string, args ...any) {
	d.m.failed += int64(n)
	failLog.Do(func() { fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...) })
}

// freshKey names a key no earlier call of this client used. The decimal
// suffix ascends, which is what the prefetcher's run detector looks for.
func (d *driver) freshKey() string {
	d.nKey++
	return fmt.Sprintf("%s%d", d.prefix, d.nKey)
}

func (d *driver) layer() string {
	if d.st.router.Shards() > 1 {
		return "router"
	}
	return "shard"
}

// span records one call and, under it, a codec span per report sized
// from Report.CodecSeconds, laid end to end from the call's start.
func (d *driver) span(parent int64, name, layer string, t0, t1 time.Time, reps ...*hcompress.Report) {
	if d.tr == nil {
		return
	}
	s, e := d.tr.At(t0), d.tr.At(t1)
	id := d.tr.Add(parent, d.req, name, layer, s, e)
	at := s
	for _, rep := range reps {
		if rep == nil || rep.CodecSeconds <= 0 {
			continue
		}
		end := min(at+int64(rep.CodecSeconds*1e9), e)
		d.tr.Add(id, d.req, "codec", "codec", at, end)
		at = end
	}
}

// write stores the next corpus buffer under key and returns it.
func (d *driver) write(key string) []byte {
	data := d.corp.at(d.nWrite)
	d.req++
	d.m.attempted++
	t0 := time.Now()
	rep, err := d.st.Compress(hcompress.Task{Key: key, Data: data})
	t1 := time.Now()
	d.m.callNs += int64(t1.Sub(t0))
	d.m.writeLat = append(d.m.writeLat, int64(t1.Sub(t0)))
	d.span(0, "Compress", d.layer(), t0, t1, rep)
	if err != nil || rep.OriginalBytes != int64(len(data)) {
		d.fail(1, "Compress(%q): %v", key, err)
	} else {
		d.m.noteWrite(d.nWrite, rep)
		d.m.shardKeys[d.st.router.ShardFor(key)]++
	}
	d.nWrite++
	return data
}

// read fetches e.key and compares every byte with e.want.
func (d *driver) read(e entry) {
	d.req++
	d.m.attempted++
	t0 := time.Now()
	rep, err := d.st.Decompress(e.key)
	t1 := time.Now()
	d.m.callNs += int64(t1.Sub(t0))
	d.m.readLat = append(d.m.readLat, int64(t1.Sub(t0)))
	d.span(0, "Decompress", d.layer(), t0, t1, rep)
	d.check(e, rep, err)
}

// check verifies one read report against the oracle and releases it.
func (d *driver) check(e entry, rep *hcompress.Report, err error) {
	switch {
	case err != nil:
		d.fail(1, "Decompress(%q): %v", e.key, err)
	case rep == nil || !bytes.Equal(rep.Data, e.want):
		d.fail(1, "Decompress(%q): wrong bytes (a stale or foreign payload)", e.key)
	default:
		d.m.noteRead(rep)
	}
	rep.Release()
}

// remove deletes key; when probe is set it then checks the key is gone.
func (d *driver) remove(key string, probe bool) {
	d.req++
	d.m.attempted++
	t0 := time.Now()
	err := d.st.Delete(key)
	t1 := time.Now()
	d.m.callNs += int64(t1.Sub(t0))
	d.m.deletes++
	d.span(0, "Delete", d.layer(), t0, t1)
	if err != nil {
		d.fail(1, "Delete(%q): %v", key, err)
		return
	}
	if probe {
		d.m.attempted++
		if rep, err := d.st.Decompress(key); !errors.Is(err, hcompress.ErrNotFound) {
			rep.Release()
			d.fail(1, "Decompress(%q) after Delete: %v, want ErrNotFound", key, err)
		}
	}
}

// writeBatch stores the next len(keys) corpus buffers as one batch call
// and returns them in order.
func (d *driver) writeBatch(keys []string) [][]byte {
	tasks := make([]hcompress.Task, len(keys))
	data := make([][]byte, len(keys))
	for i, k := range keys {
		data[i] = d.corp.at(d.nWrite + i)
		tasks[i] = hcompress.Task{Key: k, Data: data[i]}
	}
	reps, lat := d.batch("CompressBatch", keys,
		func() ([]*hcompress.Report, error) { return d.st.CompressBatch(tasks) },
		func(s *hcompress.Shard, idx []int) ([]*hcompress.Report, error) {
			sub := make([]hcompress.Task, len(idx))
			for j, i := range idx {
				sub[j] = tasks[i]
			}
			return s.CompressBatch(sub)
		})
	d.m.writeLat = append(d.m.writeLat, lat)
	for i, k := range keys {
		if reps[i] == nil || reps[i].OriginalBytes != int64(len(data[i])) {
			d.fail(1, "CompressBatch item %q failed", k)
			continue
		}
		d.m.noteWrite(d.nWrite+i, reps[i])
		d.m.shardKeys[d.st.router.ShardFor(k)]++
	}
	d.nWrite += len(keys)
	return data
}

// readBatch fetches every entry as one batch call and verifies each.
func (d *driver) readBatch(es []entry) {
	keys := make([]string, len(es))
	for i, e := range es {
		keys[i] = e.key
	}
	reps, lat := d.batch("DecompressBatch", keys,
		func() ([]*hcompress.Report, error) { return d.st.DecompressBatch(keys) },
		func(s *hcompress.Shard, idx []int) ([]*hcompress.Report, error) {
			sub := make([]string, len(idx))
			for j, i := range idx {
				sub[j] = keys[i]
			}
			return s.DecompressBatch(sub)
		})
	d.m.readLat = append(d.m.readLat, lat)
	for i, e := range es {
		if reps[i] == nil {
			d.fail(1, "DecompressBatch item %q failed", e.key)
			continue
		}
		d.check(e, reps[i], nil)
	}
}

// batch times one batch call over keys and returns one report slot per
// key (nil where the item failed) and the call's latency. whole is the
// root-API call; part is the same call on one shard for the items idx,
// used only by the traced rep of a multi-shard workload (see splitBatch).
func (d *driver) batch(name string, keys []string, whole func() ([]*hcompress.Report, error),
	part func(*hcompress.Shard, []int) ([]*hcompress.Report, error)) ([]*hcompress.Report, int64) {
	d.req++
	d.m.attempted += int64(len(keys))
	var reps []*hcompress.Report
	var err error
	split := d.tr != nil && d.st.router.Shards() > 1
	t0 := time.Now()
	if split {
		reps, err = d.splitBatch(t0, name, keys, part)
	} else {
		reps, err = whole()
	}
	t1 := time.Now()
	if !split {
		d.span(0, name, d.layer(), t0, t1, reps...)
	}
	d.m.callNs += int64(t1.Sub(t0))
	if err != nil {
		d.fail(0, "%s: %v", name, err)
	}
	if len(reps) != len(keys) {
		reps = make([]*hcompress.Report, len(keys))
	}
	return reps, int64(t1.Sub(t0))
}

// splitBatch is the traced rep's stand-in for a multi-shard Router batch
// call: it routes with the Router's own ShardFor, then calls each owning
// Shard concurrently exactly as the Router does, so that every shard's
// share of the call is a span of its own under the router span. (From
// outside, a Router call is opaque; its own glue is measured separately
// by the router.glue_us_op probe.)
func (d *driver) splitBatch(t0 time.Time, name string, keys []string,
	call func(*hcompress.Shard, []int) ([]*hcompress.Report, error)) ([]*hcompress.Report, error) {
	r := d.st.router
	byShard := make([][]int, r.Shards())
	for i, k := range keys {
		s := r.ShardFor(k)
		byShard[s] = append(byShard[s], i)
	}
	root := d.tr.Begin(0, d.req, name, "router", d.tr.At(t0))
	reps := make([]*hcompress.Report, len(keys))
	errs := make([]error, r.Shards())
	var wg sync.WaitGroup
	for s, idx := range byShard {
		if len(idx) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s0 := time.Now()
			sreps, err := call(r.Shard(s), idx)
			d.span(root, name, "shard", s0, time.Now(), sreps...)
			errs[s] = err
			for j, rep := range sreps {
				reps[idx[j]] = rep
			}
		}()
	}
	wg.Wait()
	d.tr.End(root, d.tr.At(time.Now()))
	return reps, errors.Join(errs...)
}
