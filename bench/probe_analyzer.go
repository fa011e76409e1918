package main

import "hcompress/internal/analyzer"

var analyzerSink analyzer.Result

// probeAnalyzer times the Input Analyzer's unhinted detection on the
// workload's buffers — what every Compress pays before planning.
func probeAnalyzer(e *probeEnv) {
	n := e.iters(2000)
	var bytes int
	ns := perOp(n, func(i int) {
		buf := e.sample(i)
		bytes = len(buf)
		analyzerSink = analyzer.AnalyzeWithHint(buf, nil)
	})
	e.add("analyzer.us_op", ns/1e3, "us", n)
	e.add("analyzer.mb_s", ratio(float64(bytes), ns)*1e3, "MB/s", n)
}
