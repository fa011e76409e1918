// Package durable is the file-backed NVMe-class tier backend: payloads
// live in append-only log files on disk and survive a process crash.
//
// # On-disk layout
//
// A backend owns one directory. It contains exactly one active journal
// (`wal-%08d.log`) that every write appends to, and any number of sealed
// segments (`seg-%08d.log`) — journals that reached the segment-size
// threshold and were made immutable by an atomic rename. File ids are
// allocated monotonically and never reused, so ascending id order is
// append order; a `compact.tmp` may transiently exist mid-compaction and
// is discarded on open.
//
// Both file kinds hold the same CRC32C-framed records:
//
//	u32  crc32c (Castagnoli) over everything after this field
//	u8   op      1 = put, 2 = delete
//	u64  handle
//	u32  key length
//	u32  payload length (0 for delete)
//	...  key bytes
//	...  payload bytes
//
// # Recovery invariants
//
// Open replays every file in ascending id order, rebuilding the
// handle→location index: a put record (re)binds its handle, a delete
// record kills it. Only the highest-id file may end in a torn record —
// lower files were fsynced before their seal rename — so a short or
// CRC-failing tail there is truncated away, while damage anywhere else
// is reported as corruption. Every replayed payload's checksum is
// recorded and re-verified on each subsequent read. After replay the
// surviving entries are deduplicated by key (the latest record wins,
// stale same-key payloads become dead bytes) and reported via Recovered.
//
// # Compaction
//
// When the dead fraction of sealed bytes passes the threshold, the
// backend seals the journal and rewrites every live sealed record into a
// fresh segment whose id is *above* all inputs and *below* the new
// journal. Replay therefore stays correct at every crash point: with the
// inputs still present the output merely re-puts the same handles, and
// inputs are removed in ascending id order so a put record can never
// outlive the delete record that shadows it. Tombstones vanish with the
// inputs — compacting all sealed segments at once is what makes dropping
// them safe.
//
// The fsync used at every durability point is injectable, and unexported
// kill hooks let tests abort put/compaction mid-write to simulate torn
// crashes deterministically.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"hcompress/internal/bufpool"
	"hcompress/internal/hcerr"
	"hcompress/internal/store/backend"
)

const (
	opPut = 1
	opDel = 2

	// hdrSize is the fixed record prefix: crc + op + handle + klen + dlen.
	hdrSize = 4 + 1 + 8 + 4 + 4

	// maxKeyLen / maxPayloadLen bound the lengths a replayed header may
	// claim; anything larger is treated as a torn/corrupt record.
	maxKeyLen     = 1 << 16
	maxPayloadLen = 1 << 31
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errClosed is returned by operations on a closed backend.
var errClosed = errors.New("durable: backend closed")

// Options tune a file backend. The zero value selects the defaults.
// Every append (put or tombstone) is fsynced before it returns, and
// compaction runs once compactMinDead of the sealed bytes are dead.
type Options struct {
	// segmentBytes seals the active journal into an immutable segment
	// once it grows past this size. Default 4 MiB; tests shrink it to
	// force rotation.
	segmentBytes int64
}

// compactMinDead is the dead fraction of sealed bytes that triggers
// compaction.
const compactMinDead = 0.5

// entry locates one live payload on disk.
type entry struct {
	key  string
	file int64  // id of the file holding the record
	off  int64  // offset of the payload bytes within that file
	n    int64  // payload length
	crc  uint32 // crc32c of the payload, re-verified on every read
	rec  int64  // full record size, for live-byte accounting
	seq  int64  // replay order, for last-record-wins key dedup on Open
}

// Backend is a file-backed TierBackend. All methods are safe for
// concurrent use; one mutex serializes the backend (reads are preads on
// shared descriptors but share the lock so compaction never closes a
// descriptor mid-read).
type Backend struct {
	dir          string
	segmentBytes int64

	mu        sync.Mutex
	wal       *os.File
	walID     int64
	walSize   int64
	files     map[int64]*os.File // read descriptors, active journal included
	fileSize  map[int64]int64
	live      map[int64]int64 // live record bytes per file
	index     map[backend.Handle]entry
	next      uint64 // last issued handle
	nextFile  int64
	used      int64
	recovered []backend.RecoveredEntry
	opened    bool
	closed    bool

	// syncFn is the injectable durability point (defaults to
	// (*os.File).Sync); kill, when non-nil, is consulted at named crash
	// points and a non-nil return aborts the operation mid-write,
	// simulating a crash for the kill-point tests.
	syncFn func(*os.File) error
	kill   func(point string) error
}

// New creates a file backend rooted at dir. Nothing touches the disk
// until Open.
func New(dir string, opts Options) *Backend {
	if opts.segmentBytes <= 0 {
		opts.segmentBytes = 4 << 20
	}
	return &Backend{
		dir:          dir,
		segmentBytes: opts.segmentBytes,
		files:        make(map[int64]*os.File),
		fileSize:     make(map[int64]int64),
		live:         make(map[int64]int64),
		index:        make(map[backend.Handle]entry),
		syncFn:       func(f *os.File) error { return f.Sync() },
	}
}

// Kind implements backend.TierBackend.
func (b *Backend) Kind() string { return "file" }

// Resident implements backend.TierBackend: payloads live on disk, not in
// retained references.
func (b *Backend) Resident() bool { return false }

func (b *Backend) killpoint(point string) error {
	if b.kill == nil {
		return nil
	}
	return b.kill(point)
}

func walName(id int64) string { return fmt.Sprintf("wal-%08d.log", id) }
func segName(id int64) string { return fmt.Sprintf("seg-%08d.log", id) }

func parseLogName(name string) (id int64, active bool, ok bool) {
	var prefix string
	switch {
	case strings.HasPrefix(name, "wal-"):
		prefix, active = "wal-", true
	case strings.HasPrefix(name, "seg-"):
		prefix = "seg-"
	default:
		return 0, false, false
	}
	if !strings.HasSuffix(name, ".log") {
		return 0, false, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".log")
	if _, err := fmt.Sscanf(digits, "%d", &id); err != nil {
		return 0, false, false
	}
	return id, active, true
}

// appendRecord encodes one framed record onto dst.
func appendRecord(dst []byte, op byte, h backend.Handle, key string, data []byte) []byte {
	start := len(dst)
	var hdr [hdrSize]byte
	hdr[4] = op
	binary.LittleEndian.PutUint64(hdr[5:], uint64(h))
	binary.LittleEndian.PutUint32(hdr[13:], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[17:], uint32(len(data)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, key...)
	dst = append(dst, data...)
	crc := crc32.Checksum(dst[start+4:], castagnoli)
	binary.LittleEndian.PutUint32(dst[start:start+4], crc)
	return dst
}

// Open implements backend.TierBackend: it replays every log file in
// ascending id order, truncates a torn tail on the highest-id file,
// verifies every record frame, seals all survivors, and starts a fresh
// journal. Recovered lists what came back.
func (b *Backend) Open() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.opened {
		return errors.New("durable: already opened")
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	names, err := os.ReadDir(b.dir)
	if err != nil {
		return err
	}
	type logFile struct {
		id     int64
		name   string
		active bool
	}
	var logs []logFile
	for _, de := range names {
		if de.IsDir() {
			continue
		}
		if strings.HasSuffix(de.Name(), ".tmp") {
			// A compaction that never committed; its content is fully
			// covered by the input segments it was built from.
			os.Remove(filepath.Join(b.dir, de.Name()))
			continue
		}
		id, active, ok := parseLogName(de.Name())
		if !ok {
			continue
		}
		logs = append(logs, logFile{id: id, name: de.Name(), active: active})
	}
	sort.Slice(logs, func(i, j int) bool { return logs[i].id < logs[j].id })
	for i := 1; i < len(logs); i++ {
		if logs[i].id == logs[i-1].id {
			return fmt.Errorf("durable: %s and %s share id %d", logs[i-1].name, logs[i].name, logs[i].id)
		}
	}

	var seq int64
	for i, lf := range logs {
		if err := b.replayFile(filepath.Join(b.dir, lf.name), lf.id, i == len(logs)-1, &seq); err != nil {
			return err
		}
		b.nextFile = lf.id + 1
	}

	// Last record wins per key: when the same key survived under several
	// handles (a same-key write race caught by a crash), keep the one
	// whose record replayed latest and drop the rest — a fresh open has
	// no outstanding references, so stale payloads are safe to shed.
	byKey := make(map[string]backend.Handle)
	for h, e := range b.index {
		if prev, ok := byKey[e.key]; !ok || e.seq > b.index[prev].seq {
			byKey[e.key] = h
		}
	}
	for h, e := range b.index {
		if byKey[e.key] != h {
			b.live[e.file] -= e.rec
			delete(b.index, h)
		}
	}

	// Seal everything: recovery leaves no active journal behind, so the
	// torn-tail rule ("only the highest id may be torn") keeps holding
	// across generations of opens.
	for _, lf := range logs {
		if lf.active {
			if err := os.Rename(filepath.Join(b.dir, lf.name), filepath.Join(b.dir, segName(lf.id))); err != nil {
				return err
			}
		}
	}
	for _, lf := range logs {
		f, err := os.Open(filepath.Join(b.dir, segName(lf.id)))
		if err != nil {
			return err
		}
		b.files[lf.id] = f
	}

	for _, e := range b.index {
		b.used += e.n
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h := byKey[k]
		b.recovered = append(b.recovered, backend.RecoveredEntry{Key: k, Handle: h, Size: b.index[h].n})
	}

	if err := b.openWAL(); err != nil {
		return err
	}
	b.opened = true
	return nil
}

// replayFile parses one log file, folding its records into the index.
// seq stamps records in replay order so Open can resolve same-key
// survivors last-record-wins afterwards.
func (b *Backend) replayFile(path string, id int64, last bool, seq *int64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	off := 0
	for off < len(raw) {
		rec := raw[off:]
		valid := false
		var op byte
		var h backend.Handle
		var key string
		var payOff, payLen int
		if len(rec) >= hdrSize {
			op = rec[4]
			h = backend.Handle(binary.LittleEndian.Uint64(rec[5:]))
			klen := int(binary.LittleEndian.Uint32(rec[13:]))
			dlen := int(binary.LittleEndian.Uint32(rec[17:]))
			if (op == opPut || op == opDel) && klen <= maxKeyLen && int64(dlen) < maxPayloadLen &&
				len(rec) >= hdrSize+klen+dlen {
				total := hdrSize + klen + dlen
				want := binary.LittleEndian.Uint32(rec)
				if crc32.Checksum(rec[4:total], castagnoli) == want {
					valid = true
					key = string(rec[hdrSize : hdrSize+klen])
					payOff, payLen = off+hdrSize+klen, dlen
					rec = rec[:total]
				}
			}
		}
		if !valid {
			if !last {
				return fmt.Errorf("durable: %w: %s has an invalid record at offset %d (not the newest file)",
					hcerr.ErrCorrupted, filepath.Base(path), off)
			}
			// Torn tail on the newest file: the crash interrupted the
			// final append. Drop it.
			if err := os.Truncate(path, int64(off)); err != nil {
				return err
			}
			break
		}
		if uint64(h) > b.next {
			b.next = uint64(h)
		}
		if old, ok := b.index[h]; ok { // rewritten by compaction output
			b.live[old.file] -= old.rec
		}
		*seq++
		switch op {
		case opPut:
			b.index[h] = entry{
				key:  key,
				file: id,
				off:  int64(payOff),
				n:    int64(payLen),
				crc:  crc32.Checksum(raw[payOff:payOff+payLen], castagnoli),
				rec:  int64(len(rec)),
				seq:  *seq,
			}
			b.live[id] += int64(len(rec))
		case opDel:
			if e, ok := b.index[h]; ok {
				b.live[e.file] -= e.rec
				delete(b.index, h)
			}
		}
		off += len(rec)
	}
	b.fileSize[id] = int64(off)
	return nil
}

// Recovered implements backend.TierBackend.
func (b *Backend) Recovered() []backend.RecoveredEntry {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.recovered
}

// openWAL starts a fresh active journal under the next file id.
func (b *Backend) openWAL() error {
	id := b.nextFile
	f, err := os.OpenFile(filepath.Join(b.dir, walName(id)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	b.nextFile++
	b.wal = f
	b.walID = id
	b.walSize = 0
	b.files[id] = f
	b.fileSize[id] = 0
	return nil
}

// seal makes the active journal immutable: fsync, atomic rename to a
// segment, keep the descriptor for reads. The caller decides when to
// open the next journal.
func (b *Backend) seal() error {
	if err := b.syncFn(b.wal); err != nil {
		return err
	}
	if err := os.Rename(filepath.Join(b.dir, walName(b.walID)), filepath.Join(b.dir, segName(b.walID))); err != nil {
		return err
	}
	b.wal = nil
	return nil
}

// append writes rec at the journal tail and fsyncs it.
func (b *Backend) append(rec []byte) error {
	if _, err := b.wal.WriteAt(rec, b.walSize); err != nil {
		return err
	}
	b.walSize += int64(len(rec))
	b.fileSize[b.walID] = b.walSize
	return b.syncFn(b.wal)
}

// Put implements backend.TierBackend: the payload is appended to the
// journal and is durable (under the sync cadence) before Put returns;
// the caller's reference is released since nothing stays resident.
func (b *Backend) Put(_ float64, key string, r *backend.Ref) (backend.Handle, error) {
	data := r.Data()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, errClosed
	}
	if b.wal == nil { // a prior seal/compact failure left no journal
		if err := b.openWAL(); err != nil {
			return 0, err
		}
	}
	if err := b.killpoint("put.before-append"); err != nil {
		return 0, err
	}
	h := backend.Handle(b.next + 1)
	rec := appendRecord(nil, opPut, h, key, data)
	if err := b.killpoint("put.torn-append"); err != nil {
		// Simulated crash mid-write: leave half a record on disk.
		b.wal.WriteAt(rec[:len(rec)/2], b.walSize)
		return 0, err
	}
	recStart := b.walSize
	if err := b.append(rec); err != nil {
		return 0, err
	}
	if err := b.killpoint("put.after-append"); err != nil {
		// Simulated crash after the append reached the journal: the
		// record is durable, so recovery will resurface this payload
		// even though the caller sees a failure.
		return 0, err
	}
	b.next++
	b.index[h] = entry{
		key:  key,
		file: b.walID,
		off:  recStart + hdrSize + int64(len(key)),
		n:    int64(len(data)),
		crc:  crc32.Checksum(data, castagnoli),
		rec:  int64(len(rec)),
	}
	b.live[b.walID] += int64(len(rec))
	b.used += int64(len(data))
	r.Release()
	// Seal/compact housekeeping is best-effort: the put itself is already
	// durable, so a maintenance failure must not be reported as a failed
	// write (the next Put reopens the journal if none is active).
	if b.walSize >= b.segmentBytes {
		if err := b.seal(); err == nil {
			b.maybeCompact()
			if b.wal == nil {
				b.openWAL()
			}
		}
	}
	return h, nil
}

// readPayload preads and checksum-verifies one entry into an arena
// buffer. Caller holds b.mu.
func (b *Backend) readPayload(e entry) ([]byte, error) {
	f, ok := b.files[e.file]
	if !ok {
		return nil, fmt.Errorf("durable: file %d missing for %q", e.file, e.key)
	}
	buf := bufpool.Get(int(e.n))
	if _, err := f.ReadAt(buf, e.off); err != nil {
		bufpool.Put(buf)
		return nil, err
	}
	if crc32.Checksum(buf, castagnoli) != e.crc {
		bufpool.Put(buf)
		return nil, fmt.Errorf("durable: %w: %q payload checksum mismatch", hcerr.ErrCorrupted, e.key)
	}
	return buf, nil
}

// Peek implements backend.TierBackend: every read materializes a fresh
// checksum-verified arena buffer that returns to the pool on Release.
func (b *Backend) Peek(_ float64, h backend.Handle) (*backend.Ref, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, errClosed
	}
	e, ok := b.index[h]
	if !ok {
		return nil, backend.ErrUnknownHandle
	}
	buf, err := b.readPayload(e)
	if err != nil {
		return nil, err
	}
	return backend.NewRef(buf, bufpool.Put), nil
}

// MoveOut implements backend.TierBackend: read the payload out, then
// tombstone it.
func (b *Backend) MoveOut(_ float64, h backend.Handle) (*backend.Ref, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, errClosed
	}
	e, ok := b.index[h]
	if !ok {
		return nil, backend.ErrUnknownHandle
	}
	buf, err := b.readPayload(e)
	if err != nil {
		return nil, err
	}
	b.deleteEntry(h, e)
	return backend.NewRef(buf, bufpool.Put), nil
}

// deleteEntry appends a tombstone and drops h from the index. The
// tombstone append is best-effort: if the device rejects it the payload
// may resurrect on recovery, which only wastes space — never loses data.
// Caller holds b.mu.
func (b *Backend) deleteEntry(h backend.Handle, e entry) {
	if b.wal != nil {
		b.append(appendRecord(nil, opDel, h, e.key, nil))
	}
	delete(b.index, h)
	b.live[e.file] -= e.rec
	b.used -= e.n
}

// Delete implements backend.TierBackend.
func (b *Backend) Delete(h backend.Handle) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	e, ok := b.index[h]
	if !ok {
		return
	}
	b.deleteEntry(h, e)
	if b.wal != nil && b.walSize >= b.segmentBytes {
		b.seal()
	}
	b.maybeCompact()
	if b.wal == nil {
		b.openWAL()
	}
}

// sealedStats sums size and live bytes across sealed segments. Caller
// holds b.mu.
func (b *Backend) sealedStats() (total, live int64) {
	for id, sz := range b.fileSize {
		if id == b.walID && b.wal != nil {
			continue
		}
		total += sz
		live += b.live[id]
	}
	return total, live
}

// maybeCompact triggers compaction when the sealed dead fraction passes
// the threshold. Caller holds b.mu.
func (b *Backend) maybeCompact() error {
	total, live := b.sealedStats()
	if total < b.segmentBytes || float64(total-live)/float64(total) < compactMinDead {
		return nil
	}
	return b.compact()
}

// Compact forces a full compaction of the sealed segments (the journal
// is sealed first, so afterwards exactly one segment holds every live
// payload). Exposed for tests and tooling; normal operation triggers it
// automatically via the dead-fraction threshold.
func (b *Backend) Compact() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return errClosed
	}
	return b.compact()
}

// compact rewrites all live sealed records into one fresh segment whose
// id sits above every input and below the next journal, then removes the
// inputs in ascending id order (see the package comment for why both
// orderings are what make every crash point recoverable). Caller holds
// b.mu; on return a fresh journal is active unless a simulated crash
// aborted mid-way.
func (b *Backend) compact() error {
	if b.wal != nil {
		if err := b.seal(); err != nil {
			return err
		}
	}
	if err := b.killpoint("compact.before-write"); err != nil {
		return err
	}
	inputs := make([]int64, 0, len(b.files))
	for id := range b.files {
		inputs = append(inputs, id)
	}
	sort.Slice(inputs, func(i, j int) bool { return inputs[i] < inputs[j] })

	outID := b.nextFile
	b.nextFile++
	tmpPath := filepath.Join(b.dir, fmt.Sprintf("compact-%08d.tmp", outID))
	cleanup := func(err error) error {
		os.Remove(tmpPath)
		if werr := b.openWAL(); werr != nil && err == nil {
			err = werr
		}
		return err
	}
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return cleanup(err)
	}

	// Deterministic output order: ascending handle.
	handles := make([]backend.Handle, 0, len(b.index))
	for h := range b.index {
		handles = append(handles, h)
	}
	sort.Slice(handles, func(i, j int) bool { return handles[i] < handles[j] })

	type placed struct {
		h backend.Handle
		e entry
	}
	var out []placed
	var offset int64
	var buf []byte
	for i, h := range handles {
		e := b.index[h]
		data, rerr := b.readPayload(e)
		if rerr != nil {
			tmp.Close()
			return cleanup(rerr)
		}
		buf = appendRecord(buf[:0], opPut, h, e.key, data)
		bufpool.Put(data)
		if i == 1 {
			if kerr := b.killpoint("compact.mid-write"); kerr != nil {
				// Simulated crash with a partially written tmp file.
				tmp.Write(buf[:len(buf)/2])
				tmp.Close()
				return kerr
			}
		}
		if _, werr := tmp.WriteAt(buf, offset); werr != nil {
			tmp.Close()
			return cleanup(werr)
		}
		ne := e
		ne.file = outID
		ne.off = offset + hdrSize + int64(len(e.key))
		ne.rec = int64(len(buf))
		out = append(out, placed{h: h, e: ne})
		offset += int64(len(buf))
	}
	if err := b.syncFn(tmp); err != nil {
		tmp.Close()
		return cleanup(err)
	}
	// Commit point: once the rename lands, replay prefers nothing — the
	// output only re-puts handles the inputs already resolve to — so the
	// switch is safe whether or not the input removals below complete.
	if err := os.Rename(tmpPath, filepath.Join(b.dir, segName(outID))); err != nil {
		tmp.Close()
		return cleanup(err)
	}
	b.files[outID] = tmp
	b.fileSize[outID] = offset
	b.live[outID] = offset
	for _, p := range out {
		b.index[p.h] = p.e
	}
	if err := b.killpoint("compact.after-rename"); err != nil {
		return err
	}
	for i, id := range inputs {
		b.files[id].Close()
		os.Remove(filepath.Join(b.dir, segName(id)))
		delete(b.files, id)
		delete(b.fileSize, id)
		delete(b.live, id)
		if i == 0 {
			if err := b.killpoint("compact.mid-delete"); err != nil {
				return err
			}
		}
	}
	return b.openWAL()
}

// Used implements backend.TierBackend.
func (b *Backend) Used() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Len implements backend.TierBackend.
func (b *Backend) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.index)
}

// SegmentCount reports the number of on-disk log files (sealed segments
// plus the active journal) — compaction observability for tests and
// benchmarks.
func (b *Backend) SegmentCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.files)
}

// Sync implements backend.TierBackend: flushes the active journal.
func (b *Backend) Sync() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || b.wal == nil {
		return nil
	}
	return b.syncFn(b.wal)
}

// Close implements backend.TierBackend: sync the journal and close every
// descriptor. The payloads stay on disk for the next Open.
func (b *Backend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	var first error
	if b.wal != nil {
		if err := b.syncFn(b.wal); err != nil {
			first = err
		}
	}
	for _, f := range b.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	b.files = make(map[int64]*os.File)
	b.wal = nil
	return first
}
