package main

import (
	"hcompress/internal/predictor"
	"hcompress/internal/seed"
)

// probePredictor times one cost prediction and one feedback observation
// (which includes its share of the periodic model update).
func probePredictor(e *probeEnv) {
	pred := predictor.New(seed.Builtin(e.hierarchy()))
	n := e.iters(100000)
	var cost seed.CodecCost
	e.add("predictor.predict_ns", perOp(n, func(i int) {
		dc := dataClasses[i%len(dataClasses)]
		cost, _ = pred.Predict(dc.typ, dc.dist, "lz4")
	}), "ns", n)
	e.add("predictor.feedback_ns", perOp(n, func(i int) {
		dc := dataClasses[i%len(dataClasses)]
		pred.Feedback(dc.typ, dc.dist, "lz4", cost)
	}), "ns", n)
}
