package main

import (
	"hcompress/internal/bufpool"
	"hcompress/internal/codec"
)

// probeCodec runs the four codecs the workloads select between over one
// buffer of each data class, through the scratch-reusing entry points
// the Compression Manager uses, and checks every round trip.
func probeCodec(e *probeEnv) {
	s := bufpool.GetScratch()
	defer bufpool.PutScratch(s)
	for _, name := range []string{"none", "snappy", "lz4", "bsc"} {
		c, err := codec.ByName(name)
		if !e.must(err, "codec.ByName "+name) {
			continue
		}
		rounds := e.iters(40)
		if name == "bsc" {
			rounds = e.iters(10)
		}
		comp := make([][]byte, len(dataClasses))
		var in, out float64
		compNs := perOp(rounds, func(i int) {
			k := i % len(dataClasses)
			comp[k], err = codec.CompressWith(s, c, comp[k][:0], e.sample(k))
			e.must(err, name+" compress")
		}) * float64(len(dataClasses))
		for k := range comp {
			if comp[k] == nil { // fewer rounds than classes
				comp[k], _ = codec.CompressWith(s, c, nil, e.sample(k))
			}
			in += float64(len(e.sample(k)))
			out += float64(len(comp[k]))
		}
		var plain []byte
		decompNs := perOp(rounds, func(i int) {
			k := i % len(dataClasses)
			plain, err = codec.DecompressWith(s, c, plain[:0], comp[k], len(e.sample(k)))
			e.must(err, name+" decompress")
		}) * float64(len(dataClasses))
		for k := range comp {
			plain, err = codec.DecompressWith(s, c, plain[:0], comp[k], len(e.sample(k)))
			if e.must(err, name+" decompress") {
				e.verify(plain, e.sample(k), "codec."+name)
			}
		}
		e.add("codec."+name+".comp_mb_s", ratio(in, compNs)*1e3, "MB/s", rounds)
		e.add("codec."+name+".decomp_mb_s", ratio(in, decompNs)*1e3, "MB/s", rounds)
		e.add("codec."+name+".ratio", ratio(in, out), "ratio", len(dataClasses))
	}
}
