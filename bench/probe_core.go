package main

import (
	"hcompress/internal/analyzer"
	"hcompress/internal/core"
	"hcompress/internal/monitor"
	"hcompress/internal/predictor"
	"hcompress/internal/seed"
	"hcompress/internal/store"
)

// newEngine builds an HCDP engine over the workload's hierarchy,
// priorities and codec list, the way the program wires one.
func (e *probeEnv) newEngine(disablePlanCache bool) (*core.Engine, *store.Store, error) {
	h := e.hierarchy()
	st, err := store.Open(h, store.Options{})
	if err != nil {
		return nil, nil, err
	}
	cfg := e.def.config()
	eng, err := core.New(predictor.New(seed.Builtin(h)), monitor.New(st, cfg.MonitorIntervalSec), core.Config{
		Weights: e.weights(), Codecs: cfg.Codecs, DisablePlanCache: disablePlanCache,
	})
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	return eng, st, nil
}

// probeCore times Engine.Plan in its three regimes: cold (an empty memo,
// so the Match/Place recursion runs), memo (decisions memoised, schema
// reconstructed) and cached (the whole-schema plan cache answers).
func probeCore(e *probeEnv) {
	attrs := make([]analyzer.Result, len(dataClasses))
	for i := range attrs {
		attrs[i] = analyzer.AnalyzeWithHint(e.sample(i), nil)
	}
	size := int64(len(e.sample(0)))

	nCold := e.iters(50)
	cold := perOp(nCold, func(i int) {
		eng, st, err := e.newEngine(false)
		if !e.must(err, "core.New") {
			return
		}
		_, err = eng.Plan(0, attrs[i%len(attrs)], size)
		e.must(err, "core cold Plan")
		st.Close()
	})
	// The cold figure includes building the engine; take that out.
	build := perOp(nCold, func(int) {
		if _, st, err := e.newEngine(false); err == nil {
			st.Close()
		}
	})
	e.add("core.plan_cold_us", max(cold-build, 0)/1e3, "us", nCold)

	plan := func(disableCache bool, iters int) float64 {
		eng, st, err := e.newEngine(disableCache)
		if !e.must(err, "core.New") {
			return 0
		}
		defer st.Close()
		for _, a := range attrs {
			_, err := eng.Plan(0, a, size)
			e.must(err, "core warm Plan")
		}
		return perOp(iters, func(i int) { _, _ = eng.Plan(0, attrs[i%len(attrs)], size) })
	}
	nMemo, nCached := e.iters(20000), e.iters(200000)
	e.add("core.plan_memo_us", plan(true, nMemo)/1e3, "us", nMemo)
	e.add("core.plan_cached_ns", plan(false, nCached), "ns", nCached)
}
