package codec

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"hcompress/internal/bufpool"
)

// gateCorpus is the timing corpus for the speedup gate: the four bench
// classes at sizes large enough for stable MB/s on a 1-vCPU host but
// small enough that the heavy codecs keep the gate under ~20s.
func gateCorpus() map[string][]byte {
	all := goldenCorpus()
	want := map[string]bool{"text": true, "floats": true, "incompressible": true, "runs": true}
	out := map[string][]byte{}
	for _, in := range all {
		if want[in.name] {
			out[in.name] = in.data
		}
	}
	return out
}

// TestDecodeMatchesReference differentially checks every rewritten decode
// loop against its pre-pass reference on the golden corpus plus
// structured random inputs: identical bytes on every valid stream.
func TestDecodeMatchesReference(t *testing.T) {
	s := bufpool.GetScratch()
	defer bufpool.PutScratch(s)
	check := func(label string, c Codec, in []byte) {
		comp, err := c.Compress(nil, in)
		if err != nil {
			t.Fatalf("%s/%s: compress: %v", c.Name(), label, err)
		}
		refOut, refErr := refDecompress(c, s, nil, comp, len(in))
		newOut, newErr := DecompressWith(s, c, nil, comp, len(in))
		if refErr != nil || newErr != nil {
			t.Fatalf("%s/%s: decode error (ref=%v, new=%v)", c.Name(), label, refErr, newErr)
		}
		if !bytes.Equal(refOut, newOut) {
			t.Fatalf("%s/%s: rewritten decoder diverges from reference", c.Name(), label)
		}
		if !bytes.Equal(newOut, in) {
			t.Fatalf("%s/%s: round-trip mismatch", c.Name(), label)
		}
	}
	for _, in := range goldenCorpus() {
		for _, c := range All() {
			check(in.name, c, in.data)
		}
	}
	// Structured random: runs, raw chunks, and self-copies at random
	// offsets — the shapes that exercise match and run paths hardest.
	rng := rand.New(rand.NewSource(424242))
	for trial := 0; trial < 30; trial++ {
		in := structuredRandom(rng, rng.Intn(60000))
		for _, c := range All() {
			check(fmt.Sprintf("fuzz-%d", trial), c, in)
		}
	}
}

// structuredRandom generates run/copy/noise-mixed inputs (shared with the
// mutation fuzz below).
func structuredRandom(rng *rand.Rand, n int) []byte {
	out := make([]byte, 0, n)
	for len(out) < n {
		switch rng.Intn(4) {
		case 0: // run
			b := byte(rng.Intn(8))
			k := rng.Intn(300) + 1
			for j := 0; j < k; j++ {
				out = append(out, b)
			}
		case 1: // random chunk
			k := rng.Intn(60) + 1
			for j := 0; j < k; j++ {
				out = append(out, byte(rng.Intn(256)))
			}
		case 2: // word run (quicklz path)
			k := rng.Intn(40) + 1
			w := [4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
			for j := 0; j < k; j++ {
				out = append(out, w[:]...)
			}
		default: // copy from earlier (overlapping offsets included)
			if len(out) == 0 {
				out = append(out, 1)
				continue
			}
			off := rng.Intn(len(out)) + 1
			k := rng.Intn(400) + 1
			for j := 0; j < k; j++ {
				out = append(out, out[len(out)-off])
			}
		}
	}
	return out[:n]
}

// TestDecodeMutationVerdictsMatchReference flips bits and truncates
// compressed streams: the rewritten decoders must reach the same
// accept/reject verdict as the references, and on accept produce the
// same bytes. (No panic, ever.)
func TestDecodeMutationVerdictsMatchReference(t *testing.T) {
	s := bufpool.GetScratch()
	defer bufpool.PutScratch(s)
	rng := rand.New(rand.NewSource(777))
	in := structuredRandom(rng, 20000)
	for _, c := range All() {
		comp, err := c.Compress(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		tryOne := func(mut []byte, what string) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: panic on %s: %v", c.Name(), what, r)
				}
			}()
			refOut, refErr := refDecompress(c, s, nil, mut, len(in))
			newOut, newErr := DecompressWith(s, c, nil, mut, len(in))
			if (refErr == nil) != (newErr == nil) {
				t.Errorf("%s: verdict diverges on %s: ref=%v new=%v", c.Name(), what, refErr, newErr)
				return
			}
			if refErr == nil && !bytes.Equal(refOut, newOut) {
				t.Errorf("%s: accepted %s but outputs differ", c.Name(), what)
			}
		}
		for trial := 0; trial < 60; trial++ {
			mut := append([]byte(nil), comp...)
			mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
			tryOne(mut, fmt.Sprintf("bitflip-%d", trial))
		}
		for _, cut := range []int{0, 1, len(comp) / 3, len(comp) / 2, len(comp) - 1} {
			if cut < len(comp) {
				tryOne(comp[:cut], fmt.Sprintf("truncate-%d", cut))
			}
		}
	}
}

// measureDecode returns best-of-rounds decompression MB/s of fn over the
// precompressed corpus. Each round repeats full corpus passes until at
// least 40ms have elapsed: fast codecs aren't measured inside timer
// noise, and a slow codec's round (bsc: 13 ms a pass) is more than the
// single pass one preemption can spoil.
func measureDecode(rounds int, dst []byte, comp map[string][]byte, plainLen map[string]int,
	fn func(dst, src []byte, srcLen int) ([]byte, error)) float64 {
	totalBytes := 0
	for name := range comp {
		totalBytes += plainLen[name]
	}
	best := 0.0
	for r := 0; r < rounds; r++ {
		start := time.Now()
		done := 0
		for passes := 0; passes == 0 || time.Since(start) < 40*time.Millisecond; passes++ {
			for name, cs := range comp {
				var err error
				dst, err = fn(dst[:0], cs, plainLen[name])
				if err != nil {
					panic(err)
				}
			}
			done += totalBytes
		}
		el := time.Since(start).Seconds()
		if mbps := float64(done) / (1 << 20) / el; mbps > best {
			best = mbps
		}
	}
	return best
}

// cpuShare spins on every P for 20 ms and returns the share of that CPU
// time the host actually gave the process: about 1 on an idle host, about
// 0.5 when a neighbour is as busy as we are. (A copy of the root
// package's helper in throughput_test.go; test files cannot be shared.)
func cpuShare() float64 {
	cpuTime := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	procs := runtime.GOMAXPROCS(0)
	cpu0, start := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < 20*time.Millisecond {
			}
		}()
	}
	wg.Wait()
	return (cpuTime() - cpu0).Seconds() / (time.Since(start).Seconds() * float64(procs))
}

// TestCodecSpeedupGate is the CI codec-speedup gate: the rewritten decode
// paths must be >= 1.3x their pre-pass references on the targeted codecs
// (huffman, lz4, and the range-coder family bsc+lzma), and no codec may
// regress. Both sides run interleaved in this process, so the comparison
// is machine-independent.
func TestCodecSpeedupGate(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("timing gate meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	corpus := gateCorpus()
	s := bufpool.GetScratch()
	defer bufpool.PutScratch(s)

	floors := map[ID]float64{Huffman: 1.30, LZ4: 1.30, BSC: 1.30, LZMA: 1.30}
	const regressFloor = 0.95 // "no codec regresses >5%"
	const rounds = 7
	// Waiting for a quiet host is bounded for the whole test, so a host
	// that never goes quiet costs 30 s, not 30 s per round.
	quietBy := time.Now().Add(30 * time.Second)

	for _, c := range All() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			comp := map[string][]byte{}
			plainLen := map[string]int{}
			for name, in := range corpus {
				cs, err := c.Compress(nil, in)
				if err != nil {
					t.Fatal(err)
				}
				comp[name] = cs
				plainLen[name] = len(in)
			}
			newFn := func(dst, src []byte, srcLen int) ([]byte, error) {
				return DecompressWith(s, c, dst, src, srcLen)
			}
			refFn := func(dst, src []byte, srcLen int) ([]byte, error) {
				return refDecompress(c, s, dst, src, srcLen)
			}
			// Interleave rounds so CPU frequency drift hits both sides. A
			// pair of rounds starts only once the host grants the process
			// its CPUs (or quietBy has passed), and the sides take turns
			// going first, so whatever the wait leaves behind — a clock
			// boost after a sleep, a cold cache — favours neither.
			dst := make([]byte, 0, 1<<21)
			var refBest, newBest float64
			for r := 0; r < rounds; r++ {
				for cpuShare() < 0.9 && time.Now().Before(quietBy) {
					time.Sleep(time.Second) // rarely enough that a neighbour waiting the same way sees a quiet host
				}
				first, second := refFn, newFn
				if r%2 == 1 {
					first, second = newFn, refFn
				}
				a := measureDecode(1, dst, comp, plainLen, first)
				b := measureDecode(1, dst, comp, plainLen, second)
				if r%2 == 1 {
					a, b = b, a
				}
				refBest, newBest = max(refBest, a), max(newBest, b)
			}
			ratio := newBest / refBest
			t.Logf("%-8s ref %8.1f MB/s  new %8.1f MB/s  speedup %.2fx", c.Name(), refBest, newBest, ratio)
			if floor, ok := floors[c.ID()]; ok && ratio < floor {
				t.Errorf("%s: decompress speedup %.2fx below gate %.2fx", c.Name(), ratio, floor)
			}
			if ratio < regressFloor {
				t.Errorf("%s: decompress regressed to %.2fx of reference", c.Name(), ratio)
			}
		})
	}
}
