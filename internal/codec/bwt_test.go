package codec

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"hcompress/internal/bufpool"
)

// bwtInputs are the shapes a suffix sorter gets wrong or slow first
// (nothing to sort, one run, short periods, the Fibonacci word's nested
// repeats, every k-mer exactly once, no S-type suffix at all, an LMS
// position at every other byte so that the recursion finds no room for
// its buckets inside the array and falls back on Scratch.Bkt), the golden
// corpus, and the benchmark's classes at every size BenchmarkBWTCompress
// times. The quadratic-ish reference sorter sets the cost, so -short and
// -race stop at 64 KiB.
func bwtInputs() []struct {
	name string
	data []byte
} {
	type input = struct {
		name string
		data []byte
	}
	fib, prev := []byte("ab"), []byte("a")
	for len(fib) < 100_000 {
		fib, prev = append(fib, prev...), fib
	}
	descending := make([]byte, 3000)
	for i := range descending {
		descending[i] = byte(255 - i*256/len(descending))
	}
	zigzag := make([]byte, 20_000)
	rng := rand.New(rand.NewSource(3))
	for i := range zigzag {
		zigzag[i] = byte(i&1<<7 | rng.Intn(128))
	}
	zigzag = append(zigzag, zigzag...) // every LMS substring twice: no comparison shortcut
	ins := []input{
		{"empty", nil},
		{"one-byte", []byte{7}},
		{"two-equal", []byte{7, 7}},
		{"all-equal", bytes.Repeat([]byte{0xAB}, 10_000)},
		{"period2", periodic(10_001, 2)},
		{"period3", periodic(10_001, 3)},
		{"period67", periodic(70_000, 67)},
		{"fibonacci", fib},
		{"debruijn-2-16", deBruijn(2, 16)},
		{"debruijn-4-7", deBruijn(4, 7)},
		{"descending", descending},
		{"zigzag", zigzag},
	}
	for _, g := range goldenCorpus() {
		ins = append(ins, input{"golden/" + g.name, g.data})
	}
	for _, class := range bwtClasses {
		for _, size := range bwtSizes {
			if size.n > 64<<10 && (testing.Short() || raceDetectorEnabled) {
				continue
			}
			ins = append(ins, input{class.name + "/" + size.name, class.gen(size.n)})
		}
	}
	return ins
}

// deBruijn returns the lexicographically least de Bruijn sequence B(k, n)
// over bytes 0..k-1 (the concatenation of the Lyndon words whose length
// divides n, by the Fredricksen-Kessler-Maiorana recursion).
func deBruijn(k, n int) []byte {
	a := make([]byte, n+1)
	var seq []byte
	var db func(t, p int)
	db = func(t, p int) {
		if t > n {
			if n%p == 0 {
				seq = append(seq, a[1:p+1]...)
			}
			return
		}
		a[t] = a[t-p]
		db(t+1, p)
		for j := int(a[t-p]) + 1; j < k; j++ {
			a[t] = byte(j)
			db(t+1, t)
		}
	}
	db(1, 1)
	return seq
}

func TestSuffixArrayMatchesReference(t *testing.T) {
	s := new(bufpool.Scratch)
	for _, in := range bwtInputs() {
		if got, want := suffixArray(s, in.data), refSuffixArray(in.data); !slices.Equal(got, want) {
			t.Errorf("%s: suffix array differs from the reference sorter's", in.name)
		}
	}
	if cap(s.Bkt) == 0 {
		t.Error("no input sent the recursion to Scratch.Bkt for its buckets; zigzag is meant to")
	}
}

// TestFusedBWTMatchesUnfused checks the two fused loops production runs
// against the four single-stage functions they replaced, byte for byte
// and ptr for ptr.
func TestFusedBWTMatchesUnfused(t *testing.T) {
	fused, plain := new(bufpool.Scratch), new(bufpool.Scratch)
	for _, in := range bwtInputs() {
		mtf, ptr := bwtForwardMTF(fused, in.data)
		want, wantPtr := bwtForward(plain, in.data)
		mtfEncode(want)
		if !bytes.Equal(mtf, want) || ptr != wantPtr {
			t.Errorf("%s: bwtForwardMTF != mtfEncode(bwtForward): ptr %d vs %d", in.name, ptr, wantPtr)
			continue
		}
		coded := bytes.Clone(mtf) // both inverses decode in place
		got, err := bwtInverseMTF(fused, nil, mtf, ptr)
		mtfDecode(coded)
		back, wantErr := bwtInverse(plain, nil, coded, wantPtr)
		if err != nil || wantErr != nil {
			t.Errorf("%s: inverse failed: fused %v, unfused %v", in.name, err, wantErr)
			continue
		}
		if !bytes.Equal(got, back) || !bytes.Equal(got, in.data) {
			t.Errorf("%s: bwtInverseMTF != bwtInverse(mtfDecode)", in.name)
		}
	}
}

// TestRangeEncoderMatchesBitwise drives encodeTree and eight encodeBit
// calls side by side: same bytes out, same coder state after every
// symbol, same probabilities at the end. Random symbols almost never
// leave more than two 0xFF bytes pending, so the test also steers: once
// the coder's interval straddles the carry boundary 1<<32 it picks, bit
// by bit, the half that still straddles it. Every output byte then stays
// pending for as long as the steering lasts, and the random symbols that
// follow resolve the run with a carry or without one.
func TestRangeEncoderMatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const contexts = 4
	treeProbs, bitProbs := make([]uint16, contexts*256), make([]uint16, contexts*256)
	initProbs(treeProbs)
	initProbs(bitProbs)
	var tree, bit rcEncoder
	tree.init(nil)
	bit.init(nil)

	var longestRun int64
	var carried, held int // pending runs of 64+ bytes resolved each way
	step := func(steer bool) {
		ctx := rng.Intn(contexts)
		tp, bp := treeProbs[ctx*256:(ctx+1)*256], bitProbs[ctx*256:(ctx+1)*256]
		sym, m := rng.Intn(256), uint32(1)
		for i := 7; i >= 0; i-- {
			b := sym >> uint(i) & 1
			if steer {
				b = 0
				if split := bit.low + uint64(bit.rng>>rcProbBits)*uint64(bp[m]); split < 1<<32 {
					b = 1
				}
			}
			bit.encodeBit(&bp[m], b)
			m = m<<1 | uint32(b)
		}
		flushed := len(tree.out)
		tree.encodeTree(tp, m-256, 8)
		if tree.low != bit.low || tree.rng != bit.rng || tree.cache != bit.cache || tree.cacheSize != bit.cacheSize {
			t.Fatalf("coder state diverged: tree {%#x %#x %#x %d}, bitwise {%#x %#x %#x %d}",
				tree.low, tree.rng, tree.cache, tree.cacheSize, bit.low, bit.rng, bit.cache, bit.cacheSize)
		}
		if !bytes.Equal(tree.out, bit.out) {
			t.Fatalf("output diverged within %d bytes", len(bit.out))
		}
		longestRun = max(longestRun, tree.cacheSize)
		if len(tree.out)-flushed >= 64 {
			// cache+carry, then the run: 0xFF+carry each.
			if tree.out[flushed+1] == 0 {
				carried++
			} else {
				held++
			}
		}
	}
	for round := 0; round < 300; round++ {
		for i := rng.Intn(50); i > 0; i-- {
			step(false)
		}
		if bit.low >= 1<<32 || bit.low+uint64(bit.rng) <= 1<<32 {
			continue // no boundary inside the interval to hold on to
		}
		for i := 64 + rng.Intn(400); i > 0; i-- {
			step(true)
		}
	}
	if !bytes.Equal(tree.flush(), bit.flush()) {
		t.Fatal("flushed output differs")
	}
	if !slices.Equal(treeProbs, bitProbs) {
		t.Fatal("final probabilities differ")
	}
	if longestRun < 256 || carried < 10 || held < 10 {
		t.Errorf("steering reached a longest pending run of %d bytes, %d long runs carried, %d held: the carry path is no longer exercised",
			longestRun, carried, held)
	}
}

// TestBWTCompressAllocs: on a Scratch that has seen the input once, the
// whole BWT compress pipeline runs without allocating.
func TestBWTCompressAllocs(t *testing.T) {
	for _, name := range []string{"bzip2", "bsc"} {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s := new(bufpool.Scratch)
		for _, in := range goldenCorpus() {
			dst, err := CompressWith(s, c, nil, in.data)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(3, func() {
				dst, _ = CompressWith(s, c, dst[:0], in.data)
			})
			if allocs != 0 {
				t.Errorf("%s/%s: %v allocs per compress on a warmed Scratch, want 0", name, in.name, allocs)
			}
		}
	}
}

// FuzzSuffixArray: for any input the SA-IS sorter and the prefix-doubling
// reference return the same array.
func FuzzSuffixArray(f *testing.F) {
	for _, in := range bwtInputs() {
		f.Add(in.data[:min(len(in.data), 4<<10)])
	}
	s := new(bufpool.Scratch)
	f.Fuzz(func(t *testing.T, data []byte) {
		if !slices.Equal(suffixArray(s, data), refSuffixArray(data)) {
			t.Fatalf("suffix array differs from the reference sorter's on %d bytes", len(data))
		}
	})
}

// FuzzBWTDecode: whatever bytes reach the bzip2 and bsc decoders, they
// return an error or exactly srcLen bytes, and never panic. Seeds are
// valid streams of the golden corpus, so mutation starts from inputs that
// get past the block headers.
func FuzzBWTDecode(f *testing.F) {
	codecs := []Codec{bzip2Codec{}, bscCodec{}}
	for _, in := range goldenCorpus() {
		plain := in.data[:min(len(in.data), 8<<10)]
		for _, c := range codecs {
			comp, err := c.Compress(nil, plain)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(comp, uint32(len(plain)))
		}
	}
	s := new(bufpool.Scratch)
	f.Fuzz(func(t *testing.T, data []byte, srcLen uint32) {
		n := int(srcLen % (4 << 20))
		for _, c := range codecs {
			out, err := DecompressWith(s, c, nil, data, n)
			if err == nil && len(out) != n {
				t.Fatalf("%s: accepted %d input bytes and returned %d, want %d", c.Name(), len(data), len(out), n)
			}
		}
	})
}
