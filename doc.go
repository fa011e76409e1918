// Package hcompress is a Go implementation of HCompress, the hierarchical
// data compression engine for multi-tiered storage environments described
// in:
//
//	H. Devarajan, A. Kougkas, L. Logan, X.-H. Sun.
//	"HCompress: Hierarchical Data Compression for Multi-Tiered Storage
//	Environments." IEEE IPDPS 2020.
//
// HCompress jointly chooses, for every I/O task, a compression library and
// a placement in a storage hierarchy (RAM, NVMe, burst buffers, parallel
// file system), so that fast tiers hold more (better-compressed) data and
// slow tiers are touched less. The selection is made by the HCDP engine, a
// memoized dynamic program over (tier, codec) combinations driven by:
//
//   - an Input Analyzer that infers data type and content distribution,
//   - a Compression Cost Predictor (a per-(type, distribution) cost
//     table — the paper's linear regression in its saturated form — with
//     an online feedback loop) estimating each codec's speed and ratio,
//   - a System Monitor tracking per-tier remaining capacity and load.
//
// The package ships twelve compression codecs behind one interface
// (huffman, rle, lz4, lzo, pithy, snappy, quicklz, brotli, zlib, bzip2,
// bsc, lzma — all but zlib implemented from scratch), a virtual-time
// multi-tier storage simulator, Hermes-style baselines, and the full
// benchmark harness reproducing the paper's figures.
//
// # Quick start
//
//	client, err := hcompress.New(hcompress.Config{})
//	if err != nil { ... }
//	defer client.Close()
//
//	rep, err := client.Compress(hcompress.Task{Key: "step0", Data: buf})
//	// rep.Ratio, rep.SubTasks: what was chosen, where it went
//
//	back, err := client.Decompress("step0")
//	// back.Data == buf
//
// See the examples directory for complete programs and EXPERIMENTS.md for
// the paper-reproduction harness.
package hcompress
