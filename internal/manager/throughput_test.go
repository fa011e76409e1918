package manager

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"hcompress/internal/analyzer"
	"hcompress/internal/codec"
	"hcompress/internal/fanout"
	"hcompress/internal/hcerr"
	"hcompress/internal/seed"
	"hcompress/internal/stats"
	"hcompress/internal/tier"
)

// writeModelTasks writes n modeled 1 MiB tasks named <prefix>0..n-1 and
// returns the virtual time after the last one.
func writeModelTasks(t *testing.T, e *env, prefix string, n int) float64 {
	t.Helper()
	attr := analyzer.Result{Type: stats.TypeFloat, Dist: stats.Gamma}
	now := 0.0
	for i := 0; i < n; i++ {
		sc, err := e.eng.Plan(now, attr, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		res, err := writeOne(e.mgr, now, fmt.Sprintf("%s%d", prefix, i), nil, 1<<20, attr, sc)
		if err != nil {
			t.Fatal(err)
		}
		now = res.End
	}
	return now
}

func TestDemoteSliceMovesOldestFirst(t *testing.T) {
	hier := tier.Ares(8*tier.MB, 32*tier.MB, tier.GB, tier.TB)
	e := newModelEnv(t, hier)
	now := writeModelTasks(t, e, "d", 4)
	if e.st.Used(0) == 0 {
		t.Skip("engine placed nothing on RAM in this configuration")
	}

	// A slice big enough for exactly the first task's sub-tasks must
	// demote the oldest task and leave the youngest untouched.
	e.mgr.mu.Lock()
	firstSubs := len(e.mgr.tasks["d0"].subs)
	lastTier := e.mgr.tasks["d3"].subs[0].tier
	e.mgr.mu.Unlock()
	moved, wrapped := e.mgr.DemoteSlice(now, 0, firstSubs)
	if moved <= 0 {
		t.Fatal("slice over the oldest task moved nothing")
	}
	if wrapped {
		t.Error("a slice bounded to the first task must not wrap past 4 tasks")
	}
	e.mgr.mu.Lock()
	for _, sm := range e.mgr.tasks["d0"].subs {
		if sm.tier == 0 {
			t.Error("oldest task still has a sub-task on tier 0")
		}
	}
	if got := e.mgr.tasks["d3"].subs[0].tier; got != lastTier {
		t.Errorf("youngest task moved (tier %d -> %d) before older ones finished", lastTier, got)
	}
	cur := e.mgr.demoteCur[0]
	e.mgr.mu.Unlock()
	if cur == 0 {
		t.Error("cursor did not advance; the next slice would rescan the same task")
	}

	// Repeated slices drain the rest; every task stays readable.
	for i := 0; i < 64; i++ {
		if _, wrapped := e.mgr.DemoteSlice(now, 0, 0); wrapped {
			break
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := readOne(e.mgr, now+10, fmt.Sprintf("d%d", i)); err != nil {
			t.Fatalf("read after demotion: %v", err)
		}
	}
}

func TestDemoteSliceSkipsDeletedAndStopsAtBottom(t *testing.T) {
	hier := tier.Ares(8*tier.MB, 32*tier.MB, tier.GB, tier.TB)
	e := newModelEnv(t, hier)
	now := writeModelTasks(t, e, "d", 3)
	if err := e.mgr.Delete("d0"); err != nil {
		t.Fatal(err)
	}
	// The deleted key lingers in the order list; the slice must skip it
	// without error and still demote the live tasks behind it.
	moved, _ := e.mgr.DemoteSlice(now, 0, 1<<20)
	if moved <= 0 {
		t.Fatal("demotion moved nothing past a deleted key")
	}

	// No demotion out of the bottom tier.
	bottom := e.st.Hierarchy().Len() - 1
	moved, wrapped := e.mgr.DemoteSlice(now, bottom, 1<<20)
	if moved != 0 || !wrapped {
		t.Errorf("bottom tier: moved %d wrapped %v, want 0/true (nothing below to demote into)", moved, wrapped)
	}
	if moved, _ = e.mgr.DemoteSlice(now, -1, 8); moved != 0 {
		t.Errorf("negative tier moved %d", moved)
	}
}

func TestDemoteSliceBoundsCriticalSection(t *testing.T) {
	hier := tier.Ares(64*tier.MB, tier.GB, tier.GB, tier.TB)
	e := newModelEnv(t, hier)
	now := writeModelTasks(t, e, "b", 12)
	// With maxSub=1, one slice may touch at most one task's sub-tasks
	// (a task demotes atomically, so the bound is per-task granular).
	e.mgr.mu.Lock()
	total := len(e.mgr.order)
	e.mgr.mu.Unlock()
	e.mgr.DemoteSlice(now, 0, 1)
	e.mgr.mu.Lock()
	cur := e.mgr.demoteCur[0]
	e.mgr.mu.Unlock()
	if cur != 1 {
		t.Errorf("maxSub=1 advanced the cursor to %d, want 1 of %d", cur, total)
	}
}

func TestOrderCompactsUnderChurn(t *testing.T) {
	hier := tier.Ares(tier.GB, tier.GB, tier.GB, tier.TB)
	e := newModelEnv(t, hier)
	writeModelTasks(t, e, "c", 32)
	for i := 0; i < 24; i++ {
		if err := e.mgr.Delete(fmt.Sprintf("c%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	e.mgr.mu.Lock()
	orderLen, live, dead := len(e.mgr.order), len(e.mgr.tasks), e.mgr.dead
	e.mgr.mu.Unlock()
	if live != 8 {
		t.Fatalf("%d live tasks, want 8", live)
	}
	if orderLen >= 32 {
		t.Errorf("order list never compacted: %d entries for %d live tasks", orderLen, live)
	}
	if dead*2 > orderLen {
		t.Errorf("compaction left %d dead of %d entries", dead, orderLen)
	}
}

func TestRewriteAfterDeleteDoesNotDuplicateOrder(t *testing.T) {
	hier := tier.Ares(tier.GB, tier.GB, tier.GB, tier.TB)
	e := newModelEnv(t, hier)
	attr := analyzer.Result{Type: stats.TypeFloat, Dist: stats.Gamma}
	sc, err := e.eng.Plan(0, attr, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := writeOne(e.mgr, 0, "cycle", nil, 1<<20, attr, sc); err != nil {
			t.Fatal(err)
		}
		if err := e.mgr.Delete("cycle"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := writeOne(e.mgr, 0, "cycle", nil, 1<<20, attr, sc); err != nil {
		t.Fatal(err)
	}
	e.mgr.mu.Lock()
	count := 0
	for _, k := range e.mgr.order {
		if k == "cycle" {
			count++
		}
	}
	e.mgr.mu.Unlock()
	if count != 1 {
		t.Errorf("key appears %d times in the order list after rewrite cycles, want 1", count)
	}
}

// TestSharedPoolMatchesPerOpFanout is the acceptance gate for the pool:
// the same task sequence through a shared persistent pool of any width
// and through no pool at all (every sub-task inline) must produce
// identical Results — End, CodecTime, IOTime, and every SubResult.
func TestSharedPoolMatchesPerOpFanout(t *testing.T) {
	hier := tier.Ares(8*tier.MB, 32*tier.MB, 128*tier.MB, tier.TB)
	attr := analyzer.Result{Type: stats.TypeFloat, Dist: stats.Gamma}

	type trace struct {
		end, codec, io float64
		subs           []SubResult
	}
	run := func(width int) []trace { // width 0: no pool
		var o Options
		if width > 0 {
			o.Pool = fanout.NewPool(width)
			defer o.Pool.Close()
		}
		e := newModelEnvOpts(t, hier, o)
		var out []trace
		now := 0.0
		for i := 0; i < 12; i++ {
			key := fmt.Sprintf("t%d", i)
			sc, err := e.eng.Plan(now, attr, 24<<20)
			if err != nil {
				t.Fatal(err)
			}
			wres, err := writeOne(e.mgr, now, key, nil, 24<<20, attr, sc)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, trace{wres.End, wres.CodecTime, wres.IOTime, wres.SubResults})
			rres, err := readOne(e.mgr, wres.End, key)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, trace{rres.End, rres.CodecTime, rres.IOTime, rres.SubResults})
			now = rres.End
		}
		return out
	}

	inline := run(0)
	for _, par := range []int{1, 2, 4, 8} {
		pooled := run(par)
		for i := range inline {
			l, p := inline[i], pooled[i]
			if l.end != p.end || l.codec != p.codec || l.io != p.io {
				t.Fatalf("par=%d op %d: pooled (%v,%v,%v) != inline (%v,%v,%v)",
					par, i, p.end, p.codec, p.io, l.end, l.codec, l.io)
			}
			if len(l.subs) != len(p.subs) {
				t.Fatalf("par=%d op %d: %d sub-results != %d", par, i, len(p.subs), len(l.subs))
			}
			for k := range l.subs {
				if l.subs[k] != p.subs[k] {
					t.Fatalf("par=%d op %d sub %d: %+v != %+v", par, i, k, p.subs[k], l.subs[k])
				}
			}
		}
	}
}

// TestGroupedCallMatchesOneRequestCalls pins the one thing grouping may
// not change: k requests in one ExecuteWrites/ExecuteReads call must be
// indistinguishable from k one-request calls issued from the same clock
// reading — same Results (every virtual time, every SubResult), same
// errors, same predictor state. All a grouped call adds is one pool
// submission and one feedback flush. The model oracle makes codec costs
// reproducible, so Results compare exactly; the predictor absorbs a
// grouped call's feedback as per-cell runs, which match the one-by-one
// recursion up to floating-point reassociation.
func TestGroupedCallMatchesOneRequestCalls(t *testing.T) {
	hier := tier.Ares(8*tier.MB, 32*tier.MB, 128*tier.MB, tier.TB)
	attr := analyzer.Result{Type: stats.TypeFloat, Dist: stats.Gamma, Size: 1}
	sizes := []int64{24 << 20, 1 << 20, 8 << 20, 24 << 20, 4 << 20, 1 << 20}
	ctx := context.Background()

	pooled := func() *env {
		p := fanout.NewPool(4)
		t.Cleanup(p.Close)
		return newModelEnvOpts(t, hier, Options{Pool: p})
	}
	grouped, single := pooled(), pooled()
	var writes []WriteReq
	for i, size := range sizes {
		sc, err := grouped.eng.Plan(0, attr, size)
		if err != nil {
			t.Fatal(err)
		}
		writes = append(writes, WriteReq{Key: fmt.Sprintf("g%d", i), Size: size, Attr: attr, Schema: sc})
	}
	// One request names a size its (absent) data cannot have: it must
	// fail alone in both groupings.
	writes = append(writes, WriteReq{Key: "bad", Data: []byte("xy"), Size: 3, Attr: attr, Schema: writes[1].Schema})

	one := append([]WriteReq(nil), writes...)
	grouped.mgr.ExecuteWrites(ctx, 0, writes)
	for i := range one {
		single.mgr.ExecuteWrites(ctx, 0, one[i:i+1])
	}
	end := 0.0
	var reads []ReadReq
	for i := range writes {
		g, s := writes[i], one[i]
		if (g.Err == nil) != (s.Err == nil) || (i < len(sizes)) != (g.Err == nil) {
			t.Fatalf("write %d: grouped err %v, one-request err %v", i, g.Err, s.Err)
		}
		if !reflect.DeepEqual(g.Res, s.Res) {
			t.Fatalf("write %d: grouped %+v != one-request %+v", i, g.Res, s.Res)
		}
		end = max(end, g.Res.End)
		reads = append(reads, ReadReq{Key: g.Key})
	}

	oneRead := append([]ReadReq(nil), reads...)
	grouped.mgr.ExecuteReads(ctx, end, reads)
	for i := range oneRead {
		single.mgr.ExecuteReads(ctx, end, oneRead[i:i+1])
	}
	for i := range reads {
		g, s := reads[i], oneRead[i]
		if (g.Err == nil) != (s.Err == nil) || errors.Is(g.Err, hcerr.ErrNotFound) != (i >= len(sizes)) {
			t.Fatalf("read %d: grouped err %v, one-request err %v", i, g.Err, s.Err)
		}
		if !reflect.DeepEqual(g.Res, s.Res) {
			t.Fatalf("read %d: grouped %+v != one-request %+v", i, g.Res, s.Res)
		}
	}

	grouped.pred.Flush()
	single.pred.Flush()
	gq, ga := grouped.pred.Stats()
	sq, sa := single.pred.Stats()
	if gq != sq || ga != sa || gq == 0 {
		t.Fatalf("feedback counts: grouped %d/%d, one-request %d/%d", gq, ga, sq, sa)
	}
	for _, dt := range stats.AllTypes() {
		for _, dist := range stats.AllDists() {
			for _, name := range codec.Names() {
				g, gok := grouped.pred.Predict(dt, dist, name)
				s, sok := single.pred.Predict(dt, dist, name)
				if gok != sok || !costsClose(g, s, 1e-9) {
					t.Errorf("%s/%s/%s: grouped %+v (%v), one-request %+v (%v)", dt, dist, name, g, gok, s, sok)
				}
			}
		}
	}
}

func costsClose(a, b seed.CodecCost, tol float64) bool {
	near := func(x, y float64) bool { return math.Abs(x-y) <= tol*(1+math.Abs(y)) }
	return near(a.CompressMBps, b.CompressMBps) && near(a.DecompressMBps, b.DecompressMBps) && near(a.Ratio, b.Ratio)
}

func TestExecuteWritesRealRoundTrip(t *testing.T) {
	p := fanout.NewPool(4)
	defer p.Close()
	e := newRealEnvOpts(t, Options{Pool: p})

	const n = 6
	var reqs []WriteReq
	var want [][]byte
	for i := 0; i < n; i++ {
		data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 1<<20, int64(i))
		attr := analyzer.Analyze(data)
		sc, err := e.eng.Plan(0, attr, int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, WriteReq{
			Key: fmt.Sprintf("b%d", i), Data: data, Size: int64(len(data)),
			Attr: attr, Schema: sc,
		})
		want = append(want, data)
	}
	e.mgr.ExecuteWrites(context.Background(), 0, reqs)
	end := 0.0
	reads := make([]ReadReq, n)
	for i, r := range reqs {
		if r.Err != nil {
			t.Fatalf("req %d: %v", i, r.Err)
		}
		if r.Res.Stored <= 0 || r.Res.End <= 0 {
			t.Fatalf("req %d: empty result %+v", i, r.Res)
		}
		end = max(end, r.Res.End)
		reads[i].Key = r.Key
	}

	e.mgr.ExecuteReads(context.Background(), end, reads)
	for i, r := range reads {
		if r.Err != nil {
			t.Fatalf("read %d: %v", i, r.Err)
		}
		if !bytes.Equal(r.Res.Data, want[i]) {
			t.Fatalf("read %d: round-trip mismatch (%d bytes vs %d)", i, len(r.Res.Data), len(want[i]))
		}
	}
}

func TestExecuteFailsIndependently(t *testing.T) {
	e := newRealEnv(t)
	data := stats.GenBuffer(stats.TypeFloat, stats.Gamma, 1<<20, 1)
	attr := analyzer.Analyze(data)
	sc, err := e.eng.Plan(0, attr, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	planErr := errors.New("caller-side failure")
	reqs := []WriteReq{
		{Key: "good0", Data: data, Size: int64(len(data)), Attr: attr, Schema: sc},
		{Key: "bad", Data: data, Size: int64(len(data)) + 1, Attr: attr, Schema: sc}, // size mismatch
		{Key: "skipped", Data: data, Size: int64(len(data)), Attr: attr, Schema: sc, Err: planErr},
		{Key: "good1", Data: data, Size: int64(len(data)), Attr: attr, Schema: sc},
	}
	e.mgr.ExecuteWrites(context.Background(), 0, reqs)
	if reqs[0].Err != nil || reqs[3].Err != nil {
		t.Fatalf("healthy requests failed: %v / %v", reqs[0].Err, reqs[3].Err)
	}
	if reqs[1].Err == nil {
		t.Fatal("size-mismatched request succeeded")
	}
	if reqs[2].Err != planErr {
		t.Fatalf("a request arriving with Err set must be left untouched, got %v", reqs[2].Err)
	}
	if _, ok := taskSize(e.mgr, "skipped"); ok {
		t.Fatal("a request arriving with Err set was executed")
	}

	reads := []ReadReq{{Key: "good0"}, {Key: "missing"}, {Key: "good1"}}
	e.mgr.ExecuteReads(context.Background(), 0, reads)
	if reads[0].Err != nil || reads[2].Err != nil {
		t.Fatalf("healthy reads failed: %v / %v", reads[0].Err, reads[2].Err)
	}
	if reads[1].Err == nil {
		t.Fatal("unknown key read succeeded")
	}
	for _, i := range []int{0, 2} {
		if !bytes.Equal(reads[i].Res.Data, data) {
			t.Fatalf("read %d mismatch", i)
		}
	}
}
