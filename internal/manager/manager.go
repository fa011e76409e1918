// Package manager implements the Compression Manager (CM, §IV-G): it
// executes the schemas the HCDP engine produces — applying the selected
// compression per sub-task, decorating payloads with metadata headers,
// driving the Storage Hardware Interface, and reporting actual costs back
// to the Compression Cost Predictor (the feedback loop).
//
// The manager runs in one of two execution modes behind the Oracle
// interface:
//
//   - RealOracle compresses actual bytes with the registered codecs and
//     measures wall-clock costs. Used by the public API and correctness
//     tests.
//   - ModelOracle consults a measured seed table (with deterministic
//     jitter) instead of touching bytes, so the experiment harness can
//     replay the paper's multi-hundred-GB workloads. The timing model and
//     all control paths — planning, headers aside, placement, feedback —
//     are identical.
package manager

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hcompress/internal/analyzer"
	"hcompress/internal/bufpool"
	"hcompress/internal/codec"
	"hcompress/internal/core"
	"hcompress/internal/fanout"
	"hcompress/internal/hcerr"
	"hcompress/internal/predictor"
	"hcompress/internal/seed"
	"hcompress/internal/stats"
	"hcompress/internal/store"
	"hcompress/internal/telemetry"
)

// castagnoli is the CRC32C table used for sub-task payload checksums
// (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Oracle abstracts how sub-task compression is performed and costed.
// The scratch parameter carries the calling worker's reusable buffers;
// implementations may pass nil to fall back to a pooled scratch.
type Oracle interface {
	// Compress produces the stored payload for piece (nil in modeled
	// mode), its stored size, and the compression time in seconds. A
	// non-nil payload is a pooled buffer whose ownership transfers to
	// the caller (the manager hands it to Store.PutOwned); a caller that
	// keeps it must return it with bufpool.Put.
	Compress(s *bufpool.Scratch, attr analyzer.Result, c codec.Codec, piece []byte, pieceLen int64, hdr Header) (payload []byte, stored int64, secs float64, err error)
	// Decompress recovers the piece (nil in modeled mode) from payload
	// and returns the decompression time in seconds. When dst is
	// non-nil the piece is appended to it (the manager passes a region
	// of the task's reassembly buffer so decompression lands in place).
	Decompress(s *bufpool.Scratch, attr analyzer.Result, c codec.Codec, payload, dst []byte, hdr Header) (piece []byte, secs float64, err error)
}

// RealOracle executes codecs on real bytes and measures wall time.
type RealOracle struct{}

// Compress implements Oracle. The compressed stream is built in the
// scratch's Comp buffer (reused across calls by the same worker); only
// the returned payload — header plus stream, in one buffer the caller
// takes ownership of — is a fresh allocation, and a pooled one. The
// payload is what a tier keeps, so it comes from the resident pool, off
// the garbage-collected heap; the caller must return it with bufpool.Put
// (the store does so once it drops the payload).
func (RealOracle) Compress(s *bufpool.Scratch, _ analyzer.Result, c codec.Codec, piece []byte, pieceLen int64, hdr Header) ([]byte, int64, float64, error) {
	if s == nil {
		s = bufpool.GetScratch()
		defer bufpool.PutScratch(s)
	}
	start := time.Now()
	comp, err := codec.CompressWith(s, c, s.Comp[:0], piece)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("manager: %s compress: %w", c.Name(), err)
	}
	secs := time.Since(start).Seconds()
	s.Comp = comp // retain the (possibly grown) buffer for the next call
	hdr.Stored = int64(len(comp))
	hdr.CRC = crc32.Checksum(comp, castagnoli)
	payload := bufpool.GetResident(HeaderSize + len(comp))
	if _, err := hdr.Encode(payload[:0]); err != nil {
		bufpool.Put(payload)
		return nil, 0, 0, err
	}
	copy(payload[HeaderSize:], comp)
	return payload, int64(len(payload)), secs, nil
}

// Decompress implements Oracle.
func (RealOracle) Decompress(s *bufpool.Scratch, _ analyzer.Result, c codec.Codec, payload, dst []byte, hdr Header) ([]byte, float64, error) {
	if s == nil {
		s = bufpool.GetScratch()
		defer bufpool.PutScratch(s)
	}
	start := time.Now()
	piece, err := codec.DecompressWith(s, c, dst, payload, int(hdr.Length))
	if err != nil {
		return nil, 0, fmt.Errorf("manager: %s decompress: %w", c.Name(), err)
	}
	return piece, time.Since(start).Seconds(), nil
}

// ModelOracle costs sub-tasks from a measured seed table with a
// deterministic per-piece jitter, so repeated runs are reproducible while
// the feedback loop still sees realistic variance.
type ModelOracle struct {
	Truth *seed.Seed
}

// modelJitter is the +/- relative jitter ModelOracle applies to speeds
// and ratio.
const modelJitter = 0.08

func (o ModelOracle) jitter(h Header, salt uint64) float64 {
	hs := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(h.Offset) >> (8 * i))
	}
	hs.Write(b[:])
	for i := 0; i < 8; i++ {
		b[i] = byte((uint64(h.Length) ^ salt) >> (8 * i))
	}
	hs.Write(b[:])
	u := hs.Sum64()
	return 1 + modelJitter*(float64(u%2048)/1024-1) // in [1-modelJitter, 1+modelJitter)
}

func (o ModelOracle) cost(attr analyzer.Result, c codec.Codec) (seed.CodecCost, error) {
	if c.ID() == codec.None {
		return seed.CodecCost{CompressMBps: 1e9, DecompressMBps: 1e9, Ratio: 1}, nil
	}
	cost, ok := o.Truth.Lookup(attr.Type, attr.Dist, c.Name())
	if !ok {
		return seed.CodecCost{}, fmt.Errorf("manager: no truth table entry for %s", c.Name())
	}
	return cost, nil
}

// Compress implements Oracle.
func (o ModelOracle) Compress(_ *bufpool.Scratch, attr analyzer.Result, c codec.Codec, _ []byte, pieceLen int64, hdr Header) ([]byte, int64, float64, error) {
	cost, err := o.cost(attr, c)
	if err != nil {
		return nil, 0, 0, err
	}
	j := o.jitter(hdr, uint64(c.ID()))
	ratio := 1 + (cost.Ratio-1)*j
	stored := int64(float64(pieceLen)/ratio) + HeaderSize
	if stored < HeaderSize+1 {
		stored = HeaderSize + 1
	}
	secs := 0.0
	if c.ID() != codec.None {
		secs = float64(pieceLen) / (1 << 20) / (cost.CompressMBps * j)
	}
	return nil, stored, secs, nil
}

// Decompress implements Oracle.
func (o ModelOracle) Decompress(_ *bufpool.Scratch, attr analyzer.Result, c codec.Codec, _, _ []byte, hdr Header) ([]byte, float64, error) {
	cost, err := o.cost(attr, c)
	if err != nil {
		return nil, 0, err
	}
	if c.ID() == codec.None {
		return nil, 0, nil
	}
	j := o.jitter(hdr, uint64(c.ID())+7777)
	return nil, float64(hdr.Length) / (1 << 20) / (cost.DecompressMBps * j), nil
}

// subMeta records what the write path did so the read path can model
// decompression without re-reading headers in modeled mode.
type subMeta struct {
	key    string
	hdr    Header
	tier   int
	attr   analyzer.Result
	stored int64
}

type taskMeta struct {
	subs []subMeta
	attr analyzer.Result
	size int64
	ver  uint64 // the directory version publish stamped; 0 for a recovered task
}

// placing tracks the writes to one key that may have put sub-tasks in
// the store but are not yet published. Sub-task store keys are shared by
// every write to a task key (subKey), so a piece is surplus — placed by
// an older or failed write and named by no directory entry — only once
// no write to the key is still placing.
type placing struct {
	n  int // writes still placing
	hi int // sub-task indices [0, hi) may hold pieces: the most any entry or write of the run had
}

// Result reports one executed task with the paper's Fig. 3 time anatomy.
type Result struct {
	End       float64 // virtual completion time
	CodecTime float64 // compression or decompression seconds
	IOTime    float64 // storage I/O seconds
	Stored    int64   // bytes occupying the hierarchy (writes)
	// Retries counts transient-fault retries absorbed by the task;
	// RetrySecs is the virtual backoff those retries consumed. IOTime
	// includes RetrySecs (the blocked lane is I/O wall from the task's
	// point of view); subtract to get pure transfer time.
	Retries   int
	RetrySecs float64
	// Version is the directory version publish stamped on a write
	// (writes only). Versions grow with every publish, so of two writes
	// to one key the later-published has the larger; Published tells
	// whether the directory still names it.
	Version uint64
	// Data is the reassembled task (reads, real mode only). It is an
	// arena buffer whose ownership transfers to the caller; return it
	// with bufpool.Put when finished (Report.Release at the API layer)
	// or let the GC take it.
	Data       []byte
	SubResults []SubResult
}

// SubResult is the per-sub-task breakdown. On writes it carries the
// HCDP engine's predictions next to the actuals so callers can compute
// prediction error; PredStored/PredTime are zero on reads (the engine
// does not re-plan a read).
type SubResult struct {
	Tier      int
	Codec     codec.ID
	OrigLen   int64
	Stored    int64
	CodecTime float64
	IOTime    float64
	// PredStored is the engine's alignment-rounded compressed-size
	// estimate for this piece; PredTime its modeled duration (eq. 3/4).
	PredStored int64
	PredTime   float64
	// PlannedTier is the tier the schema selected; differs from Tier
	// when the placement spilled down because the prediction was
	// optimistic or the monitor's view was stale. Reads echo Tier.
	PlannedTier int
	// Retries counts transient-fault retries this sub-task absorbed;
	// RetrySecs is the virtual backoff they consumed (included in IOTime).
	Retries   int
	RetrySecs float64
}

// Manager executes schemas against a store. Safe for concurrent use.
//
// Sub-task codec work runs through a bounded worker pool (see
// Options.Pool), but virtual-time accounting is always replayed serially
// in sub-task order, so a task's Result — End, CodecTime, IOTime,
// SubResults order — is identical for every pool width: the deterministic
// virtual-time rule is "codec times sum per the serial model; only
// wall-clock work overlaps".
type Manager struct {
	mu      sync.Mutex
	st      *store.Store
	pred    *predictor.CCP
	oracle  Oracle
	pool    *fanout.Pool // shared persistent pool; nil runs fan-outs inline
	tasks   map[string]*taskMeta
	order   []string            // write order, oldest first (drain/demotion policy)
	inOrder map[string]struct{} // keys present in order (deleted keys linger until compaction)
	dead    int                 // order entries whose key has been deleted
	placing map[string]placing  // keys with writes between beginPlacing and publish
	pubs    uint64              // writes published so far: the last directory version stamped

	demoteCur []int // per-source-tier cursor into order for DemoteSlice

	demoteNotify func(keys []string) // Options.DemoteNotify

	tm mgrMetrics // nil instruments when telemetry is off
}

// mgrMetrics are the Compression Manager's instruments, indexed by codec
// ID where per-codec. All slices are nil when telemetry is off.
type mgrMetrics struct {
	inBytes    []*telemetry.Counter   // original bytes entering each codec (writes)
	outBytes   []*telemetry.Counter   // stored bytes leaving each codec (writes)
	readBytes  []*telemetry.Counter   // original bytes recovered per codec (reads)
	ratio      []*telemetry.Histogram // achieved compression ratio per codec
	queueWait  *telemetry.Histogram   // wall seconds a sub-task waited for a pool worker
	stageQueue *telemetry.Histogram   // the same wait as hc_stage_seconds{stage="queue"}
	writes     *telemetry.Counter
	reads      *telemetry.Counter
	spills     *telemetry.Counter // placements that fell below the planned tier
	retries    *telemetry.Counter // transient-fault retries (reads and writes)
	drained    *telemetry.Counter // bytes trickled down by Drain
	demoted    *telemetry.Counter // bytes trickled down by DemoteSlice
}

// newMgrMetrics registers the manager's instruments on reg: per-codec
// bytes in/out and achieved-ratio histograms, worker-pool queue wait,
// and write/read/spill counters. A nil registry leaves telemetry off.
func newMgrMetrics(reg *telemetry.Registry) mgrMetrics {
	if reg == nil {
		return mgrMetrics{}
	}
	all := codec.All()
	maxID := codec.ID(0)
	for _, c := range all {
		if c.ID() > maxID {
			maxID = c.ID()
		}
	}
	tm := mgrMetrics{
		inBytes:   make([]*telemetry.Counter, int(maxID)+1),
		outBytes:  make([]*telemetry.Counter, int(maxID)+1),
		readBytes: make([]*telemetry.Counter, int(maxID)+1),
		ratio:     make([]*telemetry.Histogram, int(maxID)+1),
		queueWait: reg.Histogram("hc_fanout_queue_wait_seconds", "wall time a sub-task waited for a pool worker", telemetry.SecondsBuckets),
		stageQueue: reg.Histogram("hc_stage_seconds", "per-stage latency attribution",
			telemetry.SecondsBuckets, telemetry.L("stage", "queue")),
		writes:  reg.Counter("hc_manager_writes_total", "tasks written"),
		reads:   reg.Counter("hc_manager_reads_total", "tasks read"),
		spills:  reg.Counter("hc_manager_spills_total", "sub-tasks placed below their planned tier"),
		retries: reg.Counter("hc_retries_total", "transient store faults retried with backoff"),
		drained: reg.Counter("hc_manager_drained_bytes_total", "bytes trickled down by Drain"),
		demoted: reg.Counter("hc_manager_demoted_bytes_total", "bytes trickled down by the background demoter"),
	}
	for _, c := range all {
		l := telemetry.L("codec", c.Name())
		tm.inBytes[c.ID()] = reg.Counter("hc_codec_in_bytes_total", "original bytes entering each codec on writes", l)
		tm.outBytes[c.ID()] = reg.Counter("hc_codec_out_bytes_total", "stored bytes (headers included) leaving each codec on writes", l)
		tm.readBytes[c.ID()] = reg.Counter("hc_codec_read_bytes_total", "original bytes recovered per codec on reads", l)
		tm.ratio[c.ID()] = reg.Histogram("hc_codec_ratio", "achieved compression ratio per codec (payload only)", telemetry.RatioBuckets, l)
	}
	return tm
}

// Options are the manager's construction-time settings; the zero value
// is a real-codec manager that runs its fan-outs inline, with no
// telemetry.
type Options struct {
	// Oracle executes and costs codec work (nil = RealOracle).
	Oracle Oracle
	// Pool routes sub-task fan-outs through a shared persistent worker
	// pool, whose width bounds the fan-out. Nil runs every sub-task inline
	// on the caller's goroutine, which suits the experiments harness: its
	// ModelOracle sub-tasks are arithmetic.
	Pool *fanout.Pool
	// DemoteNotify, when set, receives the root keys of tasks
	// DemoteSlice moved, after the manager lock is released (so it may
	// call back into the manager) — the read cache invalidates demoted
	// keys through it.
	DemoteNotify func(keys []string)
	// Telemetry, when non-nil, receives the manager's instruments.
	Telemetry *telemetry.Registry
}

// New creates a Compression Manager over a store and a predictor.
func New(st *store.Store, pred *predictor.CCP, o Options) *Manager {
	m := &Manager{
		st: st, pred: pred, oracle: o.Oracle,
		pool:         o.Pool,
		tasks:        make(map[string]*taskMeta),
		inOrder:      make(map[string]struct{}),
		placing:      make(map[string]placing),
		demoteNotify: o.DemoteNotify,
		tm:           newMgrMetrics(o.Telemetry),
	}
	if m.oracle == nil {
		m.oracle = RealOracle{}
	}
	return m
}

// Retry policy for transient store faults: three attempts beyond the
// first per tier, starting at 1 ms of virtual backoff, doubling to a
// 250 ms cap — enough to ride out a sub-second transient window without
// stalling the spill chain.
const (
	retryMax  = 3
	retryBase = 1e-3
	retryCap  = 0.25
)

// retry runs attempt at virtual time t and, while it fails with a
// transient fault, again after capped exponential backoff, up to retryMax
// more times. The backoff advances the virtual clock, so a retry can
// outlive a blip window. It returns the time of the last attempt, the
// caller's running retry bill (virtual backoff seconds consumed, attempts
// beyond the first — a spill carries its bill down the tiers) with this
// call's share added, and the last attempt's error; attempt leaves its
// own results in variables it captures.
func (m *Manager) retry(t, retrySecs float64, retries int, attempt func(t float64) error) (float64, float64, int, error) {
	err := attempt(t)
	backoff := retryBase
	for r := 0; err != nil && hcerr.IsTransient(err) && r < retryMax; r++ {
		m.tm.retries.Inc()
		t += backoff
		retrySecs += backoff
		retries++
		if backoff < retryCap {
			backoff *= 2
		}
		err = attempt(t)
	}
	return t, retrySecs, retries, err
}

// runFan executes fn(scratch, k) for every sub-task index k through the
// pool (inline, in index order, when there is none). Every item is
// attempted and the lowest-indexed error returned. The submission
// inherits ctx's scheduling class (fanout.WithClass) so a front-end can
// let latency-sensitive reads overtake batch writes; an untagged context
// is Interactive.
func (m *Manager) runFan(ctx context.Context, n int, fn func(s *bufpool.Scratch, k int) error) error {
	return m.pool.RunClass(fanout.ClassOf(ctx), n, fn)
}

// Drain is the asynchronous flushing path of a multi-tiered buffer: during
// an idle window (e.g. the application's compute phase) it trickles the
// oldest buffered sub-tasks one tier down, freeing fast-tier capacity for
// the next burst. Moves are modeled through the store, so they consume
// tier lanes like any other I/O; draining stops when the window closes or
// nothing movable remains. It returns the bytes moved.
func (m *Manager) Drain(now, window float64) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	deadline := now + window
	timeline := now
	var moved int64
	nTiers := m.st.Hierarchy().Len()
outer:
	for _, key := range m.order {
		meta, ok := m.tasks[key]
		if !ok {
			continue // deleted
		}
		for i := range meta.subs {
			if timeline >= deadline {
				break outer
			}
			sm := &meta.subs[i]
			if sm.tier >= nTiers-1 {
				continue
			}
			end, err := m.st.Move(timeline, sm.key, sm.tier+1)
			if err != nil {
				continue // destination full; try other blobs
			}
			timeline = end
			sm.tier++
			moved += sm.stored
		}
	}
	m.tm.drained.Add(moved)
	return moved
}

// DemoteSlice is the incremental form of Drain used by the background
// demoter: one bounded critical section that scans at most maxSub
// sub-tasks (default 64) from a per-tier cursor into the write-order
// list, moving sub-tasks resident on tier from one tier down. Because
// the lock is held only for the slice, demotion interleaves with the
// data path instead of stalling it; repeated calls resume where the last
// slice stopped, oldest task first. It reports the bytes moved and
// whether the cursor wrapped past the end of the order list (a full pass
// completed and the cursor reset to the oldest task).
func (m *Manager) DemoteSlice(now float64, from, maxSub int) (moved int64, wrapped bool) {
	moved, wrapped, movedKeys := m.demoteSlice(now, from, maxSub)
	m.tm.demoted.Add(moved)
	if m.demoteNotify != nil && len(movedKeys) > 0 {
		m.demoteNotify(movedKeys)
	}
	return moved, wrapped
}

// demoteSlice is DemoteSlice's critical section. movedKeys carries the
// root key of every task that had a sub-task moved — collected only when
// a notify callback wants them, and delivered by the caller after m.mu is
// released so the callback can re-enter the manager.
func (m *Manager) demoteSlice(now float64, from, maxSub int) (moved int64, wrapped bool, movedKeys []string) {
	if maxSub <= 0 {
		maxSub = 64
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	nTiers := m.st.Hierarchy().Len()
	if from < 0 || from >= nTiers-1 {
		return 0, true, nil // nothing below the bottom tier to demote into
	}
	if m.demoteCur == nil {
		m.demoteCur = make([]int, nTiers)
	}
	cur := m.demoteCur[from]
	if cur >= len(m.order) {
		cur = 0
	}
	timeline := now
	scanned := 0
	for cur < len(m.order) && scanned < maxSub {
		key := m.order[cur]
		cur++
		meta, ok := m.tasks[key]
		if !ok {
			scanned++ // deleted key: skip, but charge the scan budget
			continue
		}
		// A task's sub-tasks demote together so reads never straddle an
		// in-progress demotion boundary mid-task.
		taskMoved := false
		for i := range meta.subs {
			sm := &meta.subs[i]
			scanned++
			if sm.tier != from {
				continue
			}
			end, err := m.st.Move(timeline, sm.key, from+1)
			if err != nil {
				continue // destination full; try the remaining blobs
			}
			timeline = end
			sm.tier++
			moved += sm.stored
			taskMoved = true
		}
		if taskMoved && m.demoteNotify != nil {
			movedKeys = append(movedKeys, key)
		}
	}
	wrapped = cur >= len(m.order)
	if wrapped {
		cur = 0
	}
	m.demoteCur[from] = cur
	return moved, wrapped, movedKeys
}

func subKey(key string, k int) string {
	var buf [64]byte
	b := append(buf[:0], key...)
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(k), 10)
	return string(b)
}

// splitSubKey inverts subKey: "key#3" → ("key", 3, true).
func splitSubKey(sk string) (string, int, bool) {
	i := strings.LastIndexByte(sk, '#')
	if i <= 0 || i == len(sk)-1 {
		return "", 0, false
	}
	k, err := strconv.Atoi(sk[i+1:])
	if err != nil || k < 0 {
		return "", 0, false
	}
	return sk[:i], k, true
}

// AdoptRecovered rebuilds task metadata for the payloads durable
// backends recovered when the store opened, and returns how many tasks
// became readable again. Sub-task store keys encode the task key and
// piece index (subKey), and every stored piece opens with its on-media
// header {offset, length, codec, stored size, CRC} — the paper's
// self-identifying-data property — so a task whose pieces all survived
// needs no separate manifest: the schema is reassembled from the media.
// Pieces whose siblings are gone (a sub-task that had been placed on a
// memory tier, say) are deleted so their capacity is reclaimed rather
// than stranded. Write-time analyzer attributes are not persisted:
// recovered tasks carry a zero attr, read reports show empty data
// attributes, and reads post no predictor feedback for them.
//
// Called once during client assembly, after the store is opened and
// before it is shared between goroutines.
func (m *Manager) AdoptRecovered() (int, error) {
	keys := m.st.Recovered()
	if len(keys) == 0 {
		return 0, nil
	}
	type piece struct {
		sub subMeta
		idx int
	}
	groups := make(map[string][]piece)
	var orphans []string
	for _, sk := range keys {
		base, idx, ok := splitSubKey(sk)
		if !ok {
			orphans = append(orphans, sk)
			continue
		}
		blob, err := m.st.Peek(0, sk)
		if err != nil {
			orphans = append(orphans, sk)
			continue
		}
		hdr, _, derr := DecodeHeader(blob.Data)
		m.st.Release(blob)
		if derr != nil {
			orphans = append(orphans, sk)
			continue
		}
		groups[base] = append(groups[base], piece{
			sub: subMeta{key: sk, hdr: hdr, tier: blob.Tier, stored: blob.Size},
			idx: idx,
		})
	}
	adopted := 0
	bases := make([]string, 0, len(groups))
	for base := range groups {
		bases = append(bases, base)
	}
	sort.Strings(bases)
	for _, base := range bases {
		ps := groups[base]
		sort.Slice(ps, func(i, j int) bool { return ps[i].idx < ps[j].idx })
		// A task is whole iff its piece indices are 0..n-1 and the header
		// ranges tile the original task without gap or overlap.
		whole := true
		var off int64
		for i, p := range ps {
			if p.idx != i || p.sub.hdr.Offset != off {
				whole = false
				break
			}
			off += p.sub.hdr.Length
		}
		if !whole {
			for _, p := range ps {
				orphans = append(orphans, p.sub.key)
			}
			continue
		}
		meta := &taskMeta{size: off}
		for _, p := range ps {
			meta.subs = append(meta.subs, p.sub)
		}
		m.mu.Lock()
		if _, taken := m.tasks[base]; taken {
			m.mu.Unlock()
			continue
		}
		m.tasks[base] = meta
		if _, lingering := m.inOrder[base]; !lingering {
			m.order = append(m.order, base)
			m.inOrder[base] = struct{}{}
		}
		m.mu.Unlock()
		adopted++
	}
	for _, sk := range orphans {
		if err := m.st.Delete(sk); err != nil {
			return adopted, fmt.Errorf("manager: reclaiming orphaned recovered piece %q: %w", sk, err)
		}
	}
	return adopted, nil
}

// WriteReq is one task of an ExecuteWrites call: a fully planned write
// going in — analysis and schema already resolved by the caller — and
// its outcome coming back in place.
type WriteReq struct {
	Key    string
	Data   []byte // nil in modeled mode
	Size   int64
	Attr   analyzer.Result
	Schema core.Schema

	// Res and Err are the outcome. A request that arrives with Err set is
	// skipped and left untouched, so a caller's own per-task failures
	// (validation, planning) ride along in its record slice.
	Res Result
	Err error

	off int // start of this request's span in the call's flattened sub-tasks
}

// compOut carries one sub-task's codec output from the fan-out into the
// serial replay. Every sub-task of every request of a call shares one
// flattened slice; req names the owning request.
type compOut struct {
	req     int32
	c       codec.Codec
	hdr     Header
	payload []byte
	stored  int64
	secs    float64
	err     error
}

// compressSub runs the codec work for one sub-task of r and records the
// output, or the failure, in o.
func (m *Manager) compressSub(s *bufpool.Scratch, r *WriteReq, st *core.SubTask, o *compOut) {
	c, err := codec.ByID(st.Codec)
	if err != nil {
		o.err = err
		return
	}
	o.c = c
	o.hdr = Header{Offset: st.Offset, Length: st.Length, Codec: st.Codec}
	var piece []byte
	if r.Data != nil {
		piece = r.Data[st.Offset : st.Offset+st.Length]
	}
	o.payload, o.stored, o.secs, o.err = m.oracle.Compress(s, r.Attr, c, piece, st.Length, o.hdr)
}

// fanStart reads the wall clock a fan-out's queue waits are measured
// from (the zero time when telemetry is off).
func (m *Manager) fanStart() time.Time {
	if m.tm.queueWait == nil {
		return time.Time{}
	}
	return time.Now()
}

// observeQueueWait records how long one sub-task waited for a pool
// worker since start.
func (m *Manager) observeQueueWait(start time.Time) {
	if m.tm.queueWait != nil {
		w := time.Since(start).Seconds()
		m.tm.queueWait.Observe(w)
		m.tm.stageQueue.Observe(w)
	}
}

// ExecuteWrites runs write schemas in two stages. Stage one flattens
// every sub-task of every request into one job and fans the codec work —
// pure CPU over the callers' buffers, no locks held — across the worker
// pool; stage two replays each request's virtual timeline serially from
// now, in sub-task order (compression time, then the placed tier's
// modeled I/O), so a Result is bit-identical for every parallelism
// setting. Every request starts at the same clock reading, exactly as
// the same requests issued as concurrent one-request calls would: all a
// multi-request call adds is one pool submission and one predictor
// feedback flush for the whole burst. Data may be nil in modeled mode.
//
// Requests fail independently: a failed request's payloads return to the
// arena without disturbing its siblings. Cancellation fails every
// request not yet placed with ctx.Err() — a write either fully places or
// leaves no trace.
func (m *Manager) ExecuteWrites(ctx context.Context, now float64, reqs []WriteReq) {
	total := 0
	for i := range reqs {
		r := &reqs[i]
		r.off = total
		if r.Err == nil && r.Data != nil && int64(len(r.Data)) != r.Size {
			r.Err = fmt.Errorf("manager: data length %d != size %d", len(r.Data), r.Size)
		}
		if r.Err == nil { // failed requests keep a zero-width span
			total += len(r.Schema.SubTasks)
		}
	}
	outs := make([]compOut, total)
	for i := range reqs {
		if r := &reqs[i]; r.Err == nil {
			for k := range r.Schema.SubTasks {
				outs[r.off+k].req = int32(i)
			}
		}
	}

	// Stage 1: codec fan-out. Each worker touches a disjoint slice of a
	// caller's buffer and a disjoint outs element; per-request failures
	// are carried in outs so one bad request cannot abort the others.
	start := m.fanStart()
	_ = m.runFan(ctx, total, func(s *bufpool.Scratch, f int) error {
		o := &outs[f]
		if o.err = ctx.Err(); o.err != nil {
			return nil
		}
		m.observeQueueWait(start)
		r := &reqs[o.req]
		m.compressSub(s, r, &r.Schema.SubTasks[f-r.off], o)
		return nil
	})

	// Stage 2: serial replay, feedback accumulated per predictor cell
	// and posted once for the whole call. The call's sub-results are
	// carved from one allocation; each directory entry is allocated on
	// its own, so a live entry never keeps its call's other entries alive.
	subRes := make([]SubResult, total)
	metas := make([]*taskMeta, len(reqs))
	m.beginPlacing(reqs, metas)
	var fb fbRun
	for i := range reqs {
		r := &reqs[i]
		if r.Err != nil {
			continue
		}
		span := outs[r.off : r.off+len(r.Schema.SubTasks)]
		var err error
		for k := range span {
			if err = span[k].err; err != nil {
				break
			}
		}
		if err == nil {
			err = ctx.Err() // cancelled after the fan finished: still abort pre-placement
		}
		if err != nil {
			for k := range span { // payloads were never handed to the store
				bufpool.Put(span[k].payload)
			}
			r.Err = err
			continue
		}
		r.Res, r.Err = m.placeTask(now, r, span, metas[i], subRes[r.off:r.off:r.off+len(span)], &fb)
	}
	m.publish(reqs, metas)
	fb.flush(m.pred)
}

// beginPlacing gives every request still without an error its directory
// entry, at the same index of metas, and registers it as placing under
// its key, before any of its sub-tasks reach the store. publish ends the
// registration.
func (m *Manager) beginPlacing(reqs []WriteReq, metas []*taskMeta) {
	for i := range reqs {
		if r := &reqs[i]; r.Err == nil {
			metas[i] = &taskMeta{subs: make([]subMeta, 0, len(r.Schema.SubTasks))}
		}
	}
	m.mu.Lock()
	for i := range reqs {
		if metas[i] != nil {
			p := m.placing[reqs[i].Key]
			p.n++
			m.placing[reqs[i].Key] = p
		}
	}
	m.mu.Unlock()
}

// publish enters a call's placed writes — every request still without an
// error, with its directory entry at the same index of metas — in the
// directory, in request order, under one acquisition of m.mu, and ends
// the placing registration of every request beginPlacing registered.
//
// An overwrite placed its sub-tasks over the old ones key for key; when
// the old write had more, the surplus sub-tasks would hold their tier's
// capacity and memory until Close. They are deleted once the last write
// placing under the key is published, under m.mu, so no write that has
// begun placing can own one of them and none can begin meanwhile.
func (m *Manager) publish(reqs []WriteReq, metas []*taskMeta) {
	n := 0
	m.mu.Lock()
	for i := range reqs {
		r, meta := &reqs[i], metas[i]
		if meta == nil {
			continue // never registered
		}
		p := m.placing[r.Key]
		old, existed := m.tasks[r.Key]
		if existed {
			p.hi = max(p.hi, len(old.subs))
		}
		p.hi = max(p.hi, len(meta.subs)) // a failed write's placed prefix too
		if r.Err == nil {
			switch _, lingering := m.inOrder[r.Key]; {
			case existed: // an overwrite keeps the key's order slot
			case lingering:
				// Rewrite of a deleted key whose order slot has not been
				// compacted away yet: reuse the slot instead of appending
				// a duplicate.
				if m.dead > 0 {
					m.dead--
				}
			default:
				m.order = append(m.order, r.Key)
				m.inOrder[r.Key] = struct{}{}
			}
			m.pubs++
			meta.ver, r.Res.Version = m.pubs, m.pubs
			m.tasks[r.Key] = meta
			n++
		}
		if p.n--; p.n > 0 {
			m.placing[r.Key] = p
			continue
		}
		delete(m.placing, r.Key)
		lo := 0
		if cur, ok := m.tasks[r.Key]; ok {
			lo = len(cur.subs)
		}
		for k := lo; k < p.hi; k++ {
			_ = m.st.Delete(subKey(r.Key, k)) // ErrNotFound only: nothing left to free
		}
	}
	m.mu.Unlock()
	m.tm.writes.Add(int64(n))
}

// putSub places one sub-task payload with the full fault discipline:
// transient store faults are retried on the same tier with capped
// exponential virtual-time backoff; capacity misses, sticky outages, and
// exhausted retries spill down the hierarchy. It returns the virtual
// completion time, the tier that finally took the payload, and the
// retry bill (attempt count and virtual backoff seconds consumed) for
// latency attribution.
func (m *Manager) putSub(t float64, tier int, sk string, payload []byte, stored int64) (end float64, placed int, retrySecs float64, retries int, err error) {
	nTiers := m.st.Hierarchy().Len()
	for {
		t, retrySecs, retries, err = m.retry(t, retrySecs, retries, func(t float64) (err error) {
			end, err = m.st.PutOwned(t, tier, sk, payload, stored)
			return err
		})
		if err == nil {
			return end, tier, retrySecs, retries, nil
		}
		spillable := errors.Is(err, store.ErrNoCapacity) ||
			errors.Is(err, hcerr.ErrTierOffline) || errors.Is(err, hcerr.ErrBackendIO) ||
			hcerr.IsTransient(err)
		if spillable && tier+1 < nTiers {
			tier++
			continue
		}
		return end, tier, retrySecs, retries, err
	}
}

// placeTask is stage 2 of a write: the serial timeline replay —
// placement, accounting, feedback — exactly as the serial model would
// have interleaved them. It fills meta, the task's directory entry for
// publish, and appends the sub-results to subRes. On failure it returns every unplaced payload to
// the arena. Predictor feedback goes to the call's accumulator.
func (m *Manager) placeTask(now float64, r *WriteReq, outs []compOut, meta *taskMeta, subRes []SubResult, fb *fbRun) (Result, error) {
	attr := r.Attr
	res := Result{End: now, SubResults: subRes}
	meta.attr, meta.size = attr, r.Size
	t := now
	for k := range r.Schema.SubTasks {
		st := &r.Schema.SubTasks[k]
		o := &outs[k]
		t += o.secs
		sk := subKey(r.Key, k)
		// The schema places by *predicted* compressed size; the actual
		// size can come out larger, the System Monitor's view can be
		// stale, or the tier can be faulting. putSub applies the repair a
		// real deployment performs: retry transient blips with backoff,
		// spill capacity misses and outages down the hierarchy.
		end, tierIdx, retrySecs, retries, err := m.putSub(t, st.Tier, sk, o.payload, o.stored)
		if err != nil {
			for i := k; i < len(outs); i++ { // unplaced payloads go back to the arena
				bufpool.Put(outs[i].payload)
			}
			return Result{}, fmt.Errorf("manager: placing sub-task %d: %w", k, err)
		}
		o.payload = nil // owned by the store now
		ioSecs := end - t
		t = end
		res.CodecTime += o.secs
		res.IOTime += ioSecs
		res.Stored += o.stored
		res.Retries += retries
		res.RetrySecs += retrySecs
		res.SubResults = append(res.SubResults, SubResult{
			Tier: tierIdx, Codec: st.Codec, OrigLen: st.Length,
			Stored: o.stored, CodecTime: o.secs, IOTime: ioSecs,
			PredStored: st.PredSize, PredTime: st.PredTime, PlannedTier: st.Tier,
			Retries: retries, RetrySecs: retrySecs,
		})
		if m.tm.inBytes != nil {
			m.tm.inBytes[st.Codec].Add(st.Length)
			m.tm.outBytes[st.Codec].Add(o.stored)
			if st.Codec != codec.None {
				m.tm.ratio[st.Codec].Observe(ratioOf(st.Length, o.stored-HeaderSize))
			}
			if tierIdx != st.Tier {
				m.tm.spills.Inc()
			}
		}
		hdr := o.hdr
		hdr.Stored = o.stored - HeaderSize
		meta.subs = append(meta.subs, subMeta{key: sk, hdr: hdr, tier: tierIdx, attr: attr, stored: o.stored})

		// Feedback loop: report the actual compression cost (write side
		// knows compression speed and ratio; decompression arrives on
		// read).
		if st.Codec != codec.None && o.secs > 0 {
			fb.add(fbKey{attr.Type, attr.Dist, o.c.Name()}, seed.CodecCost{
				CompressMBps: float64(st.Length) / (1 << 20) / o.secs,
				Ratio:        ratioOf(st.Length, o.stored-HeaderSize),
			})
		}
	}
	res.End = t
	return res, nil
}

// fbKey identifies one predictor cell: all observations for a given
// (type, dist, codec) update the same table entry.
type fbKey struct {
	dt    stats.DataType
	dist  stats.Dist
	codec string
}

// fbCell is one cell's observations within a call, in order. The first
// is held inline so a single observation allocates nothing.
type fbCell struct {
	key   fbKey
	first seed.CodecCost
	rest  []seed.CodecCost
}

// fbRun accumulates one call's feedback per predictor cell so the
// predictor takes each cell as a single run — one lock acquisition per
// cell per call instead of one per sub-task. Feedback order within a
// cell is preserved; across cells it is grouped, which the models cannot
// observe (each cell updates disjoint regressor state).
// A call touches a handful of cells at most, so they are found by
// linear scan, and the first is backed inline: a single-cell call — one
// task, one codec — allocates nothing. The zero value is ready to use;
// an fbRun must not be copied once add has been called.
type fbRun struct {
	cells []fbCell
	one   [1]fbCell
}

func (b *fbRun) add(k fbKey, cost seed.CodecCost) {
	for i := range b.cells {
		if b.cells[i].key == k {
			b.cells[i].rest = append(b.cells[i].rest, cost)
			return
		}
	}
	if b.cells == nil {
		b.cells = b.one[:0]
	}
	b.cells = append(b.cells, fbCell{key: k, first: cost})
}

func (b *fbRun) flush(pred *predictor.CCP) {
	for i := range b.cells {
		c := &b.cells[i]
		pred.Feedback(c.key.dt, c.key.dist, c.key.codec, c.first)
		pred.FeedbackRun(c.key.dt, c.key.dist, c.key.codec, c.rest)
	}
}

func ratioOf(orig, stored int64) float64 {
	if stored <= 0 {
		return 1
	}
	r := float64(orig) / float64(stored)
	if r < 1 {
		return 1
	}
	return r
}

// ReadReq is one task of an ExecuteReads call: the key going in, the
// outcome coming back in place.
type ReadReq struct {
	Key string
	Res Result
	Err error

	// Captured by the directory pass.
	attr analyzer.Result
	size int64
	off  int    // start of this request's span in the call's flattened sub-tasks
	n    int    // sub-tasks in the span
	data []byte // reassembly buffer (real mode); handed over as Res.Data
}

// readSub is one sub-task of a read on its way through the stages: the
// write-time metadata, the pinned payload, and the decompression output
// the serial replay needs. Every sub-task of every request of a call
// shares one flattened slice; req names the owning request.
type readSub struct {
	req  int32
	sub  subMeta
	blob store.Blob
	c    codec.Codec
	hdr  Header
	secs float64
	err  error
}

// decompressSub runs the codec work for one sub-task: decode the
// on-media header, decompress with the library it names, and land the
// piece in its region of the task's reassembly buffer. k is the
// sub-task's index within its task.
func (m *Manager) decompressSub(s *bufpool.Scratch, attr analyzer.Result, rs *readSub, resData []byte, k int, real bool) error {
	sub := &rs.sub
	hdr := sub.hdr
	payload := rs.blob.Data
	var dst []byte
	if real {
		// Real mode: trust the on-media header, not the in-memory
		// metadata — this is the "identify the compression library
		// from the data itself" path.
		var rest []byte
		var err error
		hdr, rest, err = DecodeHeader(rs.blob.Data)
		if err != nil {
			return err
		}
		// Integrity gate: a payload whose CRC32C disagrees with its header
		// never reaches the decompressor.
		if got := crc32.Checksum(rest, castagnoli); got != hdr.CRC {
			return fmt.Errorf("manager: sub-task %d payload CRC %08x != header %08x: %w",
				k, got, hdr.CRC, hcerr.ErrCorrupted)
		}
		payload = rest
		// Workers write disjoint regions of the shared buffer, so
		// the decoded range must agree with the write-time metadata
		// before a region is carved out for it.
		if hdr.Offset != sub.hdr.Offset || hdr.Length != sub.hdr.Length {
			return fmt.Errorf("manager: sub-task %d header range (%d,%d) disagrees with metadata (%d,%d)",
				k, hdr.Offset, hdr.Length, sub.hdr.Offset, sub.hdr.Length)
		}
		if hdr.Offset+hdr.Length > int64(len(resData)) {
			return fmt.Errorf("manager: sub-task exceeds task bounds")
		}
		// Full-slice expression: every shipped codec decodes in place
		// into this exact-capacity region (TestDecodeInPlaceAllocFree);
		// one that did not would reallocate instead of clobbering the
		// neighbouring region.
		dst = resData[hdr.Offset : hdr.Offset : hdr.Offset+hdr.Length]
	}
	c, err := codec.ByID(hdr.Codec)
	if err != nil {
		return err
	}
	piece, secs, err := m.oracle.Decompress(s, attr, c, payload, dst, hdr)
	if err != nil {
		return err
	}
	if real {
		if int64(len(piece)) != hdr.Length {
			return fmt.Errorf("manager: sub-task %d decompressed to %d bytes, want %d", k, len(piece), hdr.Length)
		}
		if len(piece) > 0 && &piece[0] != &resData[hdr.Offset] {
			// No shipped codec lands here; the copy guards a codec
			// that outgrew its region and reallocated.
			copy(resData[hdr.Offset:hdr.Offset+hdr.Length], piece)
		}
	}
	rs.c, rs.hdr, rs.secs = c, hdr, secs
	return nil
}

// peekSubs fetches a task's payloads without modeling I/O (the timed
// reads are replayed later with the correct interleaved start times).
// Peek pins arena-owned payloads; the pins are dropped as soon as the
// decompression fan-out finishes. Transient faults are retried with the
// same backoff as writes (the advanced clock only feeds the injector —
// peeks never consume tier lanes). On error every pin taken so far is
// released.
func (m *Manager) peekSubs(now float64, subs []readSub) error {
	for k := range subs {
		rs := &subs[k]
		_, _, _, err := m.retry(now, 0, 0, func(t float64) (err error) {
			rs.blob, err = m.st.Peek(t, rs.sub.key)
			return err
		})
		if err != nil {
			for j := 0; j < k; j++ {
				m.st.Release(subs[j].blob)
			}
			return err
		}
	}
	return nil
}

// openReads is the untimed front half of a read, shared by ExecuteReads
// and ReadData. One directory pass captures every task's metadata; each
// task's payloads are peeked from the store without advancing any tier
// timeline; and every sub-task of every request is decompressed through
// a single pool submission — pure CPU, no locks held — straight into its
// region of the task's one arena reassembly buffer, so the read path
// performs no per-piece allocation and no reassembly copy. attributed
// says whether the sub-tasks' waits for a pool worker count toward
// latency attribution (demand reads) or not (speculative ones).
//
// On return every payload pin has been released, and each request either
// carries Err or has its span of the returned slice decompressed into
// its data buffer. Requests fail independently; cancellation fails every
// unfinished request with ctx.Err().
func (m *Manager) openReads(ctx context.Context, now float64, reqs []ReadReq, attributed bool) []readSub {
	m.mu.Lock()
	total := 0
	for i := range reqs {
		r := &reqs[i]
		meta, ok := m.tasks[r.Key]
		if !ok {
			r.Err = fmt.Errorf("manager: unknown task %q: %w", r.Key, hcerr.ErrNotFound)
			continue
		}
		r.attr, r.size, r.off, r.n = meta.attr, meta.size, total, len(meta.subs)
		total += r.n
	}
	subs := make([]readSub, total)
	for i := range reqs {
		if r := &reqs[i]; r.Err == nil {
			// Copy: demotion mutates sub-task tiers under m.mu.
			for k, sm := range m.tasks[r.Key].subs {
				subs[r.off+k] = readSub{req: int32(i), sub: sm}
			}
		}
	}
	m.mu.Unlock()

	real := m.st.KeepsData()
	for i := range reqs {
		r := &reqs[i]
		if r.Err != nil {
			continue
		}
		if r.Err = m.peekSubs(now, subs[r.off:r.off+r.n]); r.Err == nil && real {
			r.data = bufpool.Get(int(r.size))
		}
	}

	// Workers write disjoint subs elements and disjoint regions of each
	// task's buffer; per-request failures are carried in subs so one bad
	// request cannot abort the others.
	var start time.Time
	if attributed {
		start = m.fanStart()
	}
	_ = m.runFan(ctx, total, func(s *bufpool.Scratch, f int) error {
		rs := &subs[f]
		r := &reqs[rs.req]
		if r.Err != nil { // nothing was pinned for this request
			return nil
		}
		if rs.err = ctx.Err(); rs.err != nil {
			return nil
		}
		if attributed {
			m.observeQueueWait(start)
		}
		rs.err = m.decompressSub(s, r.attr, rs, r.data, f-r.off, real)
		return nil
	})

	for i := range reqs {
		r := &reqs[i]
		if r.Err != nil {
			continue
		}
		for k := r.off; k < r.off+r.n; k++ {
			m.st.Release(subs[k].blob) // the replay only needs sizes, not payloads
			if r.Err == nil {
				r.Err = subs[k].err
			}
		}
		if r.Err != nil {
			bufpool.Put(r.data)
			r.data = nil
		}
	}
	return subs
}

// replayRead is the timed back half of a read: the serial timeline
// replay (tier read, then decompression time, per sub-task in order) and
// the decompression-speed feedback. Reassembly already happened in place
// during the fan-out; ownership of the buffer passes to the caller
// through Result.Data on success.
func (m *Manager) replayRead(now float64, r *ReadReq, subs []readSub, fb *fbRun) (Result, error) {
	attr := r.attr
	res := Result{End: now, Data: r.data}
	t := now
	for k := range subs {
		rs := &subs[k]
		sm := &rs.sub
		var end float64
		_, retrySecs, retries, err := m.retry(t, 0, 0, func(t float64) (err error) {
			end, err = m.st.ReadTime(t, sm.key)
			return err
		})
		if err != nil {
			bufpool.Put(r.data)
			return Result{}, err
		}
		ioSecs := end - t
		t = end + rs.secs
		res.CodecTime += rs.secs
		res.IOTime += ioSecs
		res.Stored += rs.blob.Size
		res.Retries += retries
		res.RetrySecs += retrySecs
		res.SubResults = append(res.SubResults, SubResult{
			Tier: sm.tier, Codec: rs.hdr.Codec, OrigLen: rs.hdr.Length,
			Stored: rs.blob.Size, CodecTime: rs.secs, IOTime: ioSecs,
			PlannedTier: sm.tier, Retries: retries, RetrySecs: retrySecs,
		})
		if m.tm.readBytes != nil {
			m.tm.readBytes[rs.hdr.Codec].Add(rs.hdr.Length)
		}
		// attr.Size == 0 marks a recovered task whose write-time analyzer
		// attributes were not persisted: feedback keyed on a zero attr
		// would train the wrong predictor cell, so those reads post none.
		if rs.hdr.Codec != codec.None && rs.secs > 0 && attr.Size > 0 {
			fb.add(fbKey{attr.Type, attr.Dist, rs.c.Name()}, seed.CodecCost{
				DecompressMBps: float64(rs.hdr.Length) / (1 << 20) / rs.secs,
			})
		}
	}
	m.tm.reads.Inc()
	res.End = t
	return res, nil
}

// ExecuteReads reads previously written tasks: fetch every sub-task,
// decode its metadata header, decompress with the library the header
// names, reassemble (openReads), then replay each request's virtual
// timeline serially from now — so a Result is identical for every
// parallelism setting, and every request starts at the same clock
// reading, as the same requests issued as concurrent one-request calls
// would. All a multi-request call adds is one directory pass, one pool
// submission and one predictor feedback flush for the whole burst. In
// modeled mode Res.Data is nil but timing and feedback behave
// identically. Requests fail independently.
func (m *Manager) ExecuteReads(ctx context.Context, now float64, reqs []ReadReq) {
	subs := m.openReads(ctx, now, reqs, true)
	var fb fbRun
	for i := range reqs {
		if r := &reqs[i]; r.Err == nil {
			r.Res, r.Err = m.replayRead(now, r, subs[r.off:r.off+r.n], &fb)
		}
	}
	fb.flush(m.pred)
}

// ReadData decompresses the task stored under key and returns the
// reassembled payload WITHOUT replaying the timed read: no tier lane is
// consumed, no virtual time accounted, no predictor feedback posted —
// the operation is invisible on the modeled timeline. The read-cache
// prefetcher uses it to warm payloads ahead of demand without perturbing
// the DES or the feedback loop. Only meaningful in real mode (the store
// keeps data); modeled mode returns an error. The returned buffer is an
// arena buffer whose ownership transfers to the caller, alongside the
// task's compressed footprint and write-time analysis. now is the current
// virtual time, consulted only by the fault injector's peek rules.
func (m *Manager) ReadData(ctx context.Context, now float64, key string) (data []byte, stored int64, attr analyzer.Result, err error) {
	if !m.st.KeepsData() {
		return nil, 0, analyzer.Result{}, errors.New("manager: ReadData requires a data-keeping store")
	}
	reqs := []ReadReq{{Key: key}}
	subs := m.openReads(ctx, now, reqs, false)
	r := &reqs[0]
	if r.Err != nil {
		return nil, 0, analyzer.Result{}, r.Err
	}
	for k := range subs {
		stored += subs[k].blob.Size
	}
	return r.data, stored, r.attr, nil
}

// Delete removes a task's sub-tasks from the hierarchy. The key's slot
// in the write-order list lingers until enough deletions accumulate,
// then the list is compacted in one pass — so the drain/demotion scan
// and the slice itself stay proportional to the live task count under
// churn instead of growing forever.
//
// The sub-tasks are deleted under m.mu, like publish's surplus, so a
// write to the key that begins placing cannot lose a piece to them. A
// write already placing under the key may have put pieces over them:
// they are left to that write's publish, which deletes every piece its
// key's directory entry does not name.
func (m *Manager) Delete(key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	meta, ok := m.tasks[key]
	if !ok {
		return fmt.Errorf("manager: unknown task %q: %w", key, hcerr.ErrNotFound)
	}
	delete(m.tasks, key)
	m.dead++
	if m.dead*2 > len(m.order) && len(m.order) >= 16 {
		m.compactOrderLocked()
	}
	if p, busy := m.placing[key]; busy {
		p.hi = max(p.hi, len(meta.subs))
		m.placing[key] = p
		return nil
	}
	for _, sm := range meta.subs {
		if err := m.st.Delete(sm.key); err != nil {
			return err
		}
	}
	return nil
}

// TaskInfo reports the original size and the Input Analyzer result that
// was persisted when the task was written, so read-path reports can carry
// the data attributes without re-analyzing.
func (m *Manager) TaskInfo(key string) (size int64, attr analyzer.Result, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	meta, found := m.tasks[key]
	if !found {
		return 0, analyzer.Result{}, false
	}
	return meta.size, meta.attr, true
}

// Published reports whether key's directory entry is still the one
// published with version ver: no later write or delete replaced it.
func (m *Manager) Published(key string, ver uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	meta, ok := m.tasks[key]
	return ok && meta.ver == ver
}

// Tasks reports the number of tasks tracked.
func (m *Manager) Tasks() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.tasks)
}

// compactOrderLocked drops deleted keys from the write-order list,
// preserving the relative age of the survivors. Demotion cursors reset
// to the oldest task; the next slice re-walks a prefix at worst. Caller
// holds m.mu.
func (m *Manager) compactOrderLocked() {
	live := m.order[:0]
	for _, k := range m.order {
		if _, ok := m.tasks[k]; ok {
			live = append(live, k)
		} else {
			delete(m.inOrder, k)
		}
	}
	for i := len(live); i < len(m.order); i++ {
		m.order[i] = "" // release the string for GC
	}
	m.order = live
	m.dead = 0
	for i := range m.demoteCur {
		m.demoteCur[i] = 0
	}
}
