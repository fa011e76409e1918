package manager

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"hcompress/internal/codec"
	"hcompress/internal/core"
	"hcompress/internal/fault"
	"hcompress/internal/predictor"
	"hcompress/internal/seed"
	"hcompress/internal/stats"
	"hcompress/internal/store"
	"hcompress/internal/tier"
)

// putGate is a fault injector that stops chosen sub-task puts: a held
// put waits until the test releases it, so two writes can be interleaved
// at an exact point; a failing put returns an error the manager does not
// retry or spill.
type putGate struct {
	mu   sync.Mutex
	hold map[string]*gate
	fail map[string]error
}

type gate struct{ reached, release chan struct{} }

// holdPut arms a one-shot hold on the next put of store key sk.
func (g *putGate) holdPut(sk string) *gate {
	gt := &gate{reached: make(chan struct{}), release: make(chan struct{})}
	g.mu.Lock()
	g.hold[sk] = gt
	g.mu.Unlock()
	return gt
}

func (g *putGate) Decide(_ float64, _ int, op fault.Op, key string, _ int64) fault.Decision {
	if op != fault.OpPut {
		return fault.Decision{}
	}
	g.mu.Lock()
	gt, err := g.hold[key], g.fail[key]
	delete(g.hold, key)
	g.mu.Unlock()
	if gt != nil {
		close(gt.reached)
		<-gt.release
	}
	return fault.Decision{Err: err}
}

func (*putGate) ReportedCapacity(_ float64, _ int, real int64) int64 { return real }

// newGatedEnv builds a data-keeping manager whose store puts pass
// through g.
func newGatedEnv(t *testing.T) (*Manager, *store.Store, *putGate) {
	t.Helper()
	g := &putGate{hold: map[string]*gate{}, fail: map[string]error{}}
	h := tier.Ares(64*tier.MB, 256*tier.MB, tier.GB, tier.TB)
	st, err := store.Open(h, store.Options{KeepData: true, FaultInjector: g})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return New(st, predictor.New(seed.Builtin(h)), Options{}), st, g
}

// evenSchema splits size bytes into n uncompressed pieces on tier 0.
func evenSchema(size int64, n int) core.Schema {
	var sc core.Schema
	for k := range n {
		off, end := size*int64(k)/int64(n), size*int64(k+1)/int64(n)
		sc.SubTasks = append(sc.SubTasks, core.SubTask{Offset: off, Length: end - off, Codec: codec.None})
	}
	return sc
}

// pieces is one write of a test: its bytes and how many sub-tasks they
// are split into.
type pieces struct {
	data []byte
	n    int
}

func (p pieces) req(key string) WriteReq {
	size := int64(len(p.data))
	return WriteReq{Key: key, Data: p.data, Size: size, Schema: evenSchema(size, p.n)}
}

func genPieces(n int, seed int64) pieces {
	return pieces{stats.GenBuffer(stats.TypeFloat, stats.Gamma, 48<<10, seed), n}
}

// checkKey asserts key reads back as want and the store holds exactly
// blobs pieces.
func checkKey(t *testing.T, m *Manager, st *store.Store, key string, want []byte, blobs int) {
	t.Helper()
	res, err := readOne(m, 0, key)
	if err != nil {
		t.Fatalf("read %q: %v", key, err)
	}
	if !bytes.Equal(res.Data, want) {
		t.Fatalf("read %q: wrong bytes", key)
	}
	if n := st.Len(); n != blobs {
		t.Fatalf("the store holds %d pieces, want %d", n, blobs)
	}
}

// TestSameCallOverwritesPublishLastWrite writes one key twice in one
// call over an older write of the key: the call's last write must read
// back whole, and only its pieces may stay in the store.
func TestSameCallOverwritesPublishLastWrite(t *testing.T) {
	for _, tc := range []struct {
		name          string
		first, second int
	}{{"short then long", 1, 3}, {"long then short", 3, 1}, {"short then short", 1, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			m, st, _ := newGatedEnv(t)
			if err := write(m, genPieces(3, 1).req("k")); err != nil {
				t.Fatal(err)
			}
			a, b := genPieces(tc.first, 2), genPieces(tc.second, 3)
			reqs := []WriteReq{a.req("k"), b.req("k")}
			m.ExecuteWrites(context.Background(), 0, reqs)
			for i := range reqs {
				if reqs[i].Err != nil {
					t.Fatalf("write %d: %v", i, reqs[i].Err)
				}
			}
			checkKey(t, m, st, "k", b.data, tc.second)
		})
	}
}

// TestConcurrentOverwriteKeepsLivePieces interleaves two calls writing
// one key: call A writes it as one piece and is held before it publishes;
// call B then places three pieces — the old write's count — and is held
// before its last. Publishing A must not delete pieces B already placed:
// B publishes last, so B must read back whole.
func TestConcurrentOverwriteKeepsLivePieces(t *testing.T) {
	m, st, g := newGatedEnv(t)
	old := genPieces(3, 1)
	if err := write(m, old.req("k")); err != nil {
		t.Fatal(err)
	}
	a, z, b := genPieces(1, 2), genPieces(1, 3), genPieces(3, 4)
	holdA, holdB := g.holdPut("z#0"), g.holdPut("k#2")

	doneA := make(chan error)
	go func() {
		reqs := []WriteReq{a.req("k"), z.req("z")} // k#0 is placed, then z#0 holds
		m.ExecuteWrites(context.Background(), 0, reqs)
		doneA <- errors.Join(reqs[0].Err, reqs[1].Err)
	}()
	<-holdA.reached
	doneB := make(chan error)
	go func() { doneB <- write(m, b.req("k")) }() // k#0 and k#1 are placed, then k#2 holds
	<-holdB.reached
	close(holdA.release)
	if err := <-doneA; err != nil {
		t.Fatal(err)
	}
	close(holdB.release)
	if err := <-doneB; err != nil {
		t.Fatal(err)
	}
	checkKey(t, m, st, "k", b.data, 4) // k#0..k#2 and z#0
}

// TestDeleteDuringPlacingWrite deletes a key while a write to it has
// placed two of its three pieces: the delete must not take the write's
// pieces, so the write, published last, reads back whole.
func TestDeleteDuringPlacingWrite(t *testing.T) {
	m, st, g := newGatedEnv(t)
	if err := write(m, genPieces(3, 1).req("k")); err != nil {
		t.Fatal(err)
	}
	b := genPieces(3, 2)
	hold := g.holdPut("k#2")
	done := make(chan error)
	go func() { done <- write(m, b.req("k")) }()
	<-hold.reached
	if err := m.Delete("k"); err != nil {
		t.Fatal(err)
	}
	close(hold.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	checkKey(t, m, st, "k", b.data, 3)
	if err := m.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if n := st.Len(); n != 0 {
		t.Fatalf("Delete left %d pieces", n)
	}
}

// TestFailedWriteLeavesNoPieces fails a write after it placed two of its
// three pieces: the pieces past what the key's directory entry names
// must leave the store.
func TestFailedWriteLeavesNoPieces(t *testing.T) {
	m, st, g := newGatedEnv(t)
	boom := errors.New("injected put failure")
	g.fail["new#2"] = boom
	if err := write(m, genPieces(3, 1).req("new")); !errors.Is(err, boom) {
		t.Fatalf("write = %v, want the injected failure", err)
	}
	if n := st.Len(); n != 0 {
		t.Fatalf("a failed write of a new key left %d pieces", n)
	}

	old := genPieces(1, 2)
	if err := write(m, old.req("k")); err != nil {
		t.Fatal(err)
	}
	g.fail["k#2"] = boom
	if err := write(m, genPieces(3, 3).req("k")); !errors.Is(err, boom) {
		t.Fatalf("overwrite = %v, want the injected failure", err)
	}
	if n := st.Len(); n != 1 {
		t.Fatalf("a failed overwrite left %d pieces, want the old write's 1", n)
	}
}

// write issues a one-request call and returns its error.
func write(m *Manager, r WriteReq) error {
	reqs := []WriteReq{r}
	m.ExecuteWrites(context.Background(), 0, reqs)
	return reqs[0].Err
}
