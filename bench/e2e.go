package main

// e2eValues computes one rep's end-to-end values. Read cost, write cost
// and space trade against each other, so all of them come from the same
// timed section and are always printed side by side.
func e2eValues(r *repResult) map[string]float64 {
	gb := float64(r.m.userBytes) / 1e9
	return map[string]float64{
		"setup_s":              r.setupSec,
		"ops_s":                r.opsPerSec(),
		"write_p50_ms":         percentileNs(r.m.writeLat, 50),
		"read_p50_ms":          percentileNs(r.m.readLat, 50),
		"stored_per_user_byte": r.m.storedPerUserByte(),
		"modeled_s_per_gb":     ratio(r.m.virtualSec, gb),
		"cpu_s_per_gb":         ratio(r.cpuSec, gb),
	}
}

// endToEnd reduces the measured reps to the eight end-to-end metrics:
// each is the median over the reps of that rep's value, and a latency is
// the rep's p50 over its whole timed section.
func endToEnd(reps []*repResult) []metric {
	vals := make([]map[string]float64, len(reps))
	var writes, reads, items int
	for i, r := range reps {
		vals[i] = e2eValues(r)
		writes += len(r.m.writeLat)
		reads += len(r.m.readLat)
		items += int(r.m.writes + r.m.reads)
	}
	med := func(name string) float64 {
		xs := make([]float64, len(vals))
		for i, v := range vals {
			xs[i] = v[name]
		}
		return median(xs)
	}
	return []metric{
		{"setup_s", med("setup_s"), "s", len(reps)},
		{"ops_s", med("ops_s"), "1/s", items},
		{"write_p50_ms", med("write_p50_ms"), "ms", writes},
		{"read_p50_ms", med("read_p50_ms"), "ms", reads},
		{"stored_per_user_byte", med("stored_per_user_byte"), "B/B", len(reps)},
		{"modeled_s_per_gb", med("modeled_s_per_gb"), "s/GB", items},
		{"cpu_s_per_gb", med("cpu_s_per_gb"), "s/GB", items},
		{"peak_rss_mb", 0, "MB", 1}, // filled in at exit
	}
}

// perRep lists every measured rep's own values in the JSON document, so
// an odd median can be traced to the rep that caused it.
func perRep(reps []*repResult) []map[string]any {
	out := make([]map[string]any, len(reps))
	for i, r := range reps {
		row := map[string]any{
			"wall_s": r.wallSec, "writes": r.m.writes, "reads": r.m.reads, "deletes": r.m.deletes,
			"cache_hits": r.m.hits, "write_calls": len(r.m.writeLat), "read_calls": len(r.m.readLat),
			"corpus_cycles": r.m.cycles,
		}
		for k, v := range e2eValues(r) {
			row[k] = v
		}
		out[i] = row
	}
	return out
}
