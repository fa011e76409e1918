package codec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hcompress/internal/bufpool"
)

// corpus returns named inputs spanning the data classes the paper's Input
// Analyzer distinguishes, plus adversarial shapes.
func corpus(t testing.TB) map[string][]byte {
	rng := rand.New(rand.NewSource(1))
	c := map[string][]byte{
		"empty":      {},
		"one":        {0x42},
		"two-same":   {7, 7},
		"two-diff":   {7, 9},
		"zeros":      make([]byte, 4096),
		"text":       []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 200)),
		"short-text": []byte("hello world"),
	}
	// Repetitive structured data.
	rep := make([]byte, 0, 8192)
	for i := 0; i < 512; i++ {
		rep = append(rep, []byte{0xDE, 0xAD, 0xBE, 0xEF, byte(i), 0, 0, 0, byte(i >> 4), 1, 2, 3, 4, 5, 6, 7}...)
	}
	c["records"] = rep
	// Random (incompressible).
	rnd := make([]byte, 8192)
	rng.Read(rnd)
	c["random"] = rnd
	// Integer array (little-endian, slowly varying).
	ints := make([]byte, 8192)
	for i := 0; i < len(ints); i += 4 {
		v := uint32(1000 + i/4 + rng.Intn(3))
		ints[i], ints[i+1], ints[i+2], ints[i+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	c["ints"] = ints
	// Float array (gaussian, like simulation output).
	floats := make([]byte, 8192)
	for i := 0; i < len(floats); i += 4 {
		f := float32(rng.NormFloat64())
		v := math.Float32bits(f)
		floats[i], floats[i+1], floats[i+2], floats[i+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
	c["floats"] = floats
	// Runs (RLE-friendly).
	runs := make([]byte, 0, 6000)
	for i := 0; i < 60; i++ {
		for j := 0; j < 100; j++ {
			runs = append(runs, byte(i))
		}
	}
	c["runs"] = runs
	// Single repeated byte, long.
	c["aaaa"] = bytes.Repeat([]byte{'a'}, 70000)
	// All 256 byte values cycling (worst case for MTF).
	cyc := make([]byte, 4096)
	for i := range cyc {
		cyc[i] = byte(i)
	}
	c["cycle"] = cyc
	// Crosses block boundaries of the block codecs.
	big := make([]byte, 300_000)
	for i := range big {
		big[i] = byte((i / 7) % 251)
	}
	c["big"] = big
	return c
}

func TestRoundTripAllCodecs(t *testing.T) {
	inputs := corpus(t)
	for _, c := range All() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			for name, in := range inputs {
				comp, err := c.Compress(nil, in)
				if err != nil {
					t.Fatalf("%s/%s: compress: %v", c.Name(), name, err)
				}
				dec, err := c.Decompress(nil, comp, len(in))
				if err != nil {
					t.Fatalf("%s/%s: decompress: %v", c.Name(), name, err)
				}
				if !bytes.Equal(dec, in) {
					t.Fatalf("%s/%s: round-trip mismatch (got %d bytes, want %d)", c.Name(), name, len(dec), len(in))
				}
			}
		})
	}
}

func TestRoundTripAppendsToDst(t *testing.T) {
	prefix := []byte("PREFIX")
	in := []byte(strings.Repeat("abcabcabd", 100))
	for _, c := range All() {
		comp, err := c.Compress(append([]byte(nil), prefix...), in)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if !bytes.HasPrefix(comp, prefix) {
			t.Fatalf("%s: compress clobbered dst prefix", c.Name())
		}
		dec, err := c.Decompress(append([]byte(nil), prefix...), comp[len(prefix):], len(in))
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if !bytes.HasPrefix(dec, prefix) || !bytes.Equal(dec[len(prefix):], in) {
			t.Fatalf("%s: decompress dst handling wrong", c.Name())
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	for _, c := range All() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			f := func(in []byte) bool {
				comp, err := c.Compress(nil, in)
				if err != nil {
					return false
				}
				dec, err := c.Decompress(nil, comp, len(in))
				return err == nil && bytes.Equal(dec, in)
			}
			cfg := &quick.Config{MaxCount: 40}
			if err := quick.Check(f, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRoundTripStructuredQuick feeds structured random inputs (runs and
// copies) that exercise the match paths far more than uniform noise.
func TestRoundTripStructuredQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	gen := func() []byte {
		n := rng.Intn(20000)
		out := make([]byte, 0, n)
		for len(out) < n {
			switch rng.Intn(3) {
			case 0: // run
				b := byte(rng.Intn(8))
				k := rng.Intn(200) + 1
				for j := 0; j < k; j++ {
					out = append(out, b)
				}
			case 1: // random chunk
				k := rng.Intn(50) + 1
				for j := 0; j < k; j++ {
					out = append(out, byte(rng.Intn(256)))
				}
			default: // copy from earlier
				if len(out) == 0 {
					out = append(out, 1)
					continue
				}
				off := rng.Intn(len(out)) + 1
				k := rng.Intn(300) + 1
				for j := 0; j < k; j++ {
					out = append(out, out[len(out)-off])
				}
			}
		}
		return out[:n]
	}
	for trial := 0; trial < 25; trial++ {
		in := gen()
		for _, c := range All() {
			comp, err := c.Compress(nil, in)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, c.Name(), err)
			}
			dec, err := c.Decompress(nil, comp, len(in))
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, c.Name(), err)
			}
			if !bytes.Equal(dec, in) {
				t.Fatalf("trial %d %s: mismatch", trial, c.Name())
			}
		}
	}
}

func TestCompressionOrdering(t *testing.T) {
	// On compressible text the heavy codecs must beat the fast ones —
	// this spectrum is what HCDP exploits.
	text := []byte(strings.Repeat("scientific applications generate massive amounts of data through simulations and observations. ", 600))
	size := func(name string) int {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := c.Compress(nil, text)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := c.Decompress(nil, comp, len(text))
		if err != nil || !bytes.Equal(dec, text) {
			t.Fatalf("%s: round trip failed: %v", name, err)
		}
		return len(comp)
	}
	fast := size("lz4")
	medium := size("brotli")
	heavy := size("bsc")
	if !(heavy < medium && medium < fast && fast < len(text)) {
		t.Errorf("expected bsc < brotli < lz4 < raw, got bsc=%d brotli=%d lz4=%d raw=%d",
			heavy, medium, fast, len(text))
	}
}

func TestIncompressibleDoesNotExplode(t *testing.T) {
	rnd := make([]byte, 1<<16)
	rand.New(rand.NewSource(7)).Read(rnd)
	for _, c := range All() {
		comp, err := c.Compress(nil, rnd)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		// Allow modest framing overhead only.
		if len(comp) > len(rnd)+len(rnd)/8+1024 {
			t.Errorf("%s: random data expanded %d -> %d", c.Name(), len(rnd), len(comp))
		}
	}
}

func TestByIDAndByName(t *testing.T) {
	for _, c := range All() {
		got, err := ByID(c.ID())
		if err != nil || got.Name() != c.Name() {
			t.Fatalf("ByID(%d) = %v, %v", c.ID(), got, err)
		}
		got, err = ByName(c.Name())
		if err != nil || got.ID() != c.ID() {
			t.Fatalf("ByName(%q) = %v, %v", c.Name(), got, err)
		}
	}
	if _, err := ByID(200); err == nil {
		t.Error("ByID(200) should fail")
	}
	if _, err := ByName("zstd"); err == nil {
		t.Error("ByName(zstd) should fail")
	}
}

func TestIDsAreStable(t *testing.T) {
	// On-disk format stability: these pairs must never change.
	want := map[string]ID{
		"none": 0, "rle": 1, "huffman": 2, "lz4": 3, "lzo": 4, "pithy": 5,
		"snappy": 6, "quicklz": 7, "brotli": 8, "zlib": 9, "bzip2": 10,
		"bsc": 11, "lzma": 12,
	}
	for name, id := range want {
		c, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.ID() != id {
			t.Errorf("%s: id %d, want %d", name, c.ID(), id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d codecs, want %d", len(All()), len(want))
	}
}

func TestDecompressCorruptInput(t *testing.T) {
	in := []byte(strings.Repeat("abcdefgh", 512))
	for _, c := range All() {
		comp, err := c.Compress(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		// Truncations must error, not panic or return wrong-length data.
		for _, cut := range []int{0, 1, len(comp) / 2, len(comp) - 1} {
			if cut >= len(comp) {
				continue
			}
			dec, err := c.Decompress(nil, comp[:cut], len(in))
			if err == nil && bytes.Equal(dec, in) && cut < len(comp)-1 {
				// Only "none" could conceivably survive, and it can't:
				t.Errorf("%s: truncation to %d silently succeeded", c.Name(), cut)
			}
		}
		// Bit flips must never panic; wrong output is acceptable only if
		// the codec has no internal checks, but length must still be
		// validated.
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 20; trial++ {
			mut := append([]byte(nil), comp...)
			mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s: panic on corrupt input: %v", c.Name(), r)
					}
				}()
				dec, err := c.Decompress(nil, mut, len(in))
				if err == nil && len(dec) != len(in) {
					t.Errorf("%s: corrupt input returned wrong length without error", c.Name())
				}
			}()
		}
	}
}

// FuzzDecode: whatever bytes reach a decoder FuzzBWTDecode does not cover,
// with any declared length below 1 MiB, it returns an error or exactly
// that many bytes, and never panics. Each input is decoded twice: into a
// nil dst, and into the Compression Manager's buffer shape, an
// exact-capacity region after a prefix, where a decoder that writes past
// the region panics on its bounds instead of growing a fresh slice. Seeds
// are every such codec's streams of the golden corpus, so mutation starts
// from inputs that parse.
func FuzzDecode(f *testing.F) {
	bwt := func(id ID) bool { return id == idBzip2 || id == idBSC }
	for _, in := range goldenCorpus() {
		plain := in.data[:min(len(in.data), 8<<10)]
		for _, c := range All() {
			if bwt(c.ID()) {
				continue
			}
			comp, err := c.Compress(nil, plain)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(c.ID()), comp, uint32(len(plain)))
		}
	}
	s := new(bufpool.Scratch)
	var buf []byte
	const prefix = 7
	f.Fuzz(func(t *testing.T, id uint8, data []byte, srcLen uint32) {
		c, err := ByID(ID(id))
		if err != nil || bwt(c.ID()) {
			return
		}
		n := int(srcLen % (1 << 20))
		out, err := DecompressWith(s, c, nil, data, n)
		if err == nil && len(out) != n {
			t.Fatalf("%s: accepted %d input bytes and returned %d, want %d", c.Name(), len(data), len(out), n)
		}
		buf = bufpool.GrowBytes(&buf, prefix+n)
		out, err = DecompressWith(s, c, buf[prefix:prefix:prefix+n], data, n)
		if err == nil && len(out) != n {
			t.Fatalf("%s: accepted %d input bytes into a region and returned %d, want %d", c.Name(), len(data), len(out), n)
		}
	})
}

func TestWrongSrcLenRejected(t *testing.T) {
	in := []byte(strings.Repeat("xyz", 1000))
	for _, c := range All() {
		comp, err := c.Compress(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		if dec, err := c.Decompress(nil, comp, len(in)+1); err == nil && len(dec) == len(in)+1 {
			t.Errorf("%s: wrong srcLen accepted", c.Name())
		}
	}
}

func TestSuffixArray(t *testing.T) {
	cases := []string{
		"", "a", "banana", "mississippi", "aaaaaaaa", "abababab",
		"the quick brown fox", "zyxwvu",
	}
	scr := bufpool.GetScratch()
	defer bufpool.PutScratch(scr)
	for _, s := range cases {
		sa := suffixArray(scr, []byte(s))
		if len(sa) != len(s) {
			t.Fatalf("%q: len %d", s, len(sa))
		}
		for j := 1; j < len(sa); j++ {
			a, b := s[sa[j-1]:], s[sa[j]:]
			if a >= b {
				t.Errorf("%q: suffixes out of order at %d: %q >= %q", s, j, a, b)
			}
		}
	}
}

func TestSuffixArrayRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	scr := bufpool.GetScratch()
	defer bufpool.PutScratch(scr)
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(3000) + 1
		s := make([]byte, n)
		for i := range s {
			s[i] = byte(rng.Intn(4)) // small alphabet stresses ties
		}
		sa := suffixArray(scr, s)
		seen := make(map[int32]bool, n)
		for j := 1; j < len(sa); j++ {
			if bytes.Compare(s[sa[j-1]:], s[sa[j]:]) >= 0 {
				t.Fatalf("trial %d: order violated at %d", trial, j)
			}
		}
		for _, v := range sa {
			if seen[v] {
				t.Fatalf("trial %d: duplicate suffix index %d", trial, v)
			}
			seen[v] = true
		}
	}
}

func TestBWTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := [][]byte{
		{}, {1}, []byte("banana"), []byte("abracadabra"), bytes.Repeat([]byte{0}, 100),
	}
	for trial := 0; trial < 15; trial++ {
		n := rng.Intn(5000)
		s := make([]byte, n)
		for i := range s {
			s[i] = byte(rng.Intn(7))
		}
		cases = append(cases, s)
	}
	scr := bufpool.GetScratch()
	defer bufpool.PutScratch(scr)
	for i, s := range cases {
		bwt, ptr := bwtForward(scr, s)
		back, err := bwtInverse(scr, nil, bwt, ptr)
		if err != nil && len(s) > 0 {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(back, s) && len(s) > 0 {
			t.Fatalf("case %d: bwt round-trip failed", i)
		}
	}
}

func TestBWTKnownVector(t *testing.T) {
	// BWT of "banana" with sentinel: rows sorted: $banana, a$, ana$, anana$,
	// banana$, na$, nana$ -> L = a,n,n,b,$,a,a -> with $ elided: "annbaa", ptr=4.
	scr := bufpool.GetScratch()
	defer bufpool.PutScratch(scr)
	bwt, ptr := bwtForward(scr, []byte("banana"))
	if string(bwt) != "annbaa" || ptr != 4 {
		t.Fatalf("got %q ptr=%d, want %q ptr=4", bwt, ptr, "annbaa")
	}
}

func TestMTFRoundTrip(t *testing.T) {
	f := func(in []byte) bool {
		buf := append([]byte(nil), in...)
		mtfEncode(buf)
		mtfDecode(buf)
		return bytes.Equal(buf, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMTFKnown(t *testing.T) {
	out := []byte{0, 0, 0}
	mtfEncode(out)
	if !bytes.Equal(out, []byte{0, 0, 0}) {
		t.Fatalf("mtf of zeros = %v", out)
	}
	out = []byte{1, 1, 2, 2}
	mtfEncode(out)
	if !bytes.Equal(out, []byte{1, 0, 2, 0}) {
		t.Fatalf("got %v want [1 0 2 0]", out)
	}
}

func TestRLE0RoundTrip(t *testing.T) {
	scr := bufpool.GetScratch()
	defer bufpool.PutScratch(scr)
	f := func(in []byte) bool {
		enc := rle0Encode(scr, in)
		dec, err := rle0Decode(scr, enc, len(in))
		return err == nil && bytes.Equal(dec, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	// Long zero run exercises the varint continuation.
	long := make([]byte, 1<<18)
	enc := rle0Encode(scr, long)
	if len(enc) > 8 {
		t.Fatalf("rle0 of %d zeros took %d bytes", len(long), len(enc))
	}
	dec, err := rle0Decode(scr, enc, len(long))
	if err != nil || !bytes.Equal(dec, long) {
		t.Fatal("long zero run round-trip failed")
	}
}

func TestRangeCoderBits(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	bitsIn := make([]int, 20000)
	for i := range bitsIn {
		// Skewed: mostly zeros, to exercise adaptation.
		if rng.Intn(10) == 0 {
			bitsIn[i] = 1
		}
	}
	var e rcEncoder
	e.init(nil)
	p := make([]uint16, 1)
	initProbs(p)
	for _, b := range bitsIn {
		e.encodeBit(&p[0], b)
	}
	out := e.flush()
	// Skewed bits should code well below 1 bit/bit.
	if len(out)*8 > len(bitsIn)/2 {
		t.Errorf("range coder: %d bits -> %d bytes (no compression?)", len(bitsIn), len(out))
	}
	var d rcDecoder
	d.init(out)
	p2 := make([]uint16, 1)
	initProbs(p2)
	for i, want := range bitsIn {
		if got := d.decodeBit(&p2[0]); got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
}

func TestRangeCoderDirectAndTree(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	type item struct {
		v    uint32
		n    uint
		tree bool
	}
	var items []item
	var e rcEncoder
	e.init(nil)
	probs := make([]uint16, 256)
	initProbs(probs)
	for i := 0; i < 5000; i++ {
		if rng.Intn(2) == 0 {
			n := uint(rng.Intn(24) + 1)
			v := rng.Uint32() & (1<<n - 1)
			items = append(items, item{v, n, false})
			e.encodeDirect(v, n)
		} else {
			v := uint32(rng.Intn(256))
			items = append(items, item{v, 8, true})
			e.encodeTree(probs, v, 8)
		}
	}
	out := e.flush()
	var d rcDecoder
	d.init(out)
	probs2 := make([]uint16, 256)
	initProbs(probs2)
	for i, it := range items {
		var got uint32
		if it.tree {
			got = d.decodeTree(probs2, 8)
		} else {
			got = d.decodeDirect(it.n)
		}
		if got != it.v {
			t.Fatalf("item %d: got %d want %d", i, got, it.v)
		}
	}
}

func TestBuildCodeLengthsKraft(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		freq := make([]int, 256)
		nsyms := rng.Intn(256) + 1
		for i := 0; i < nsyms; i++ {
			freq[rng.Intn(256)] = rng.Intn(100000) + 1
		}
		var lengths [256]uint8
		buildCodeLengths(lengths[:], freq, huffMaxLen)
		kraft := 0
		used := 0
		for s, l := range lengths {
			if freq[s] > 0 && l == 0 {
				t.Fatalf("trial %d: symbol %d has freq but no code", trial, s)
			}
			if freq[s] == 0 && l != 0 {
				t.Fatalf("trial %d: symbol %d has code but no freq", trial, s)
			}
			if l > huffMaxLen {
				t.Fatalf("trial %d: length %d exceeds max", trial, l)
			}
			if l > 0 {
				kraft += 1 << (huffMaxLen - int(l))
				used++
			}
		}
		if used >= 2 && kraft != 1<<huffMaxLen {
			t.Fatalf("trial %d: kraft sum %d != %d", trial, kraft, 1<<huffMaxLen)
		}
	}
}

func TestCanonicalCodesPrefixFree(t *testing.T) {
	freq := make([]int, 256)
	rng := rand.New(rand.NewSource(41))
	for i := range freq {
		freq[i] = rng.Intn(1000) + 1
	}
	var lengths [256]uint8
	buildCodeLengths(lengths[:], freq, huffMaxLen)
	var codes [256]uint32
	canonicalCodes(codes[:], lengths[:])
	// No code may be a prefix of another (in the LSB-first sense:
	// code_a == code_b mod 2^len_a implies a == b).
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if a == b || lengths[a] == 0 || lengths[b] == 0 || lengths[a] > lengths[b] {
				continue
			}
			if codes[b]&(1<<lengths[a]-1) == codes[a] {
				t.Fatalf("code %d (len %d) is a prefix of %d (len %d)", a, lengths[a], b, lengths[b])
			}
		}
	}
}

func TestSlotCoding(t *testing.T) {
	for v := 4; v < 9000; v++ {
		slot, extra, ebits := slotFor(v, 4)
		if extra >= 1<<ebits && ebits > 0 {
			t.Fatalf("v=%d: extra %d doesn't fit in %d bits", v, extra, ebits)
		}
		back := slotBase(slot, 4) + extra
		if back != v {
			t.Fatalf("v=%d: round-trips to %d (slot=%d extra=%d)", v, back, slot, extra)
		}
	}
	// Distances start at 1.
	for v := 1; v < 200000; v = v*2 + 1 {
		slot, extra, _ := slotFor(v, 1)
		if slotBase(slot, 1)+extra != v {
			t.Fatalf("dist %d round-trip failed", v)
		}
	}
}

func TestNoneIsIdentity(t *testing.T) {
	c, _ := ByID(None)
	in := []byte("identity")
	comp, _ := c.Compress(nil, in)
	if !bytes.Equal(comp, in) {
		t.Fatal("none must be identity")
	}
	if _, err := c.Decompress(nil, comp, len(in)-1); err == nil {
		t.Fatal("none must validate srcLen")
	}
}

func BenchmarkCompress(b *testing.B) {
	text := []byte(strings.Repeat("HPC storage systems include fast node-local and shared resources. ", 2000))
	for _, c := range All() {
		b.Run(c.Name(), func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf, _ = c.Compress(buf[:0], text)
			}
		})
	}
}

func BenchmarkDecompress(b *testing.B) {
	text := []byte(strings.Repeat("HPC storage systems include fast node-local and shared resources. ", 2000))
	for _, c := range All() {
		comp, err := c.Compress(nil, text)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.Name(), func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				var err error
				buf, err = c.Decompress(buf[:0], comp, len(text))
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func ExampleByName() {
	c, _ := ByName("snappy")
	msg := []byte("hello hello hello hello")
	comp, _ := c.Compress(nil, msg)
	dec, _ := c.Decompress(nil, comp, len(msg))
	fmt.Println(string(dec))
	// Output: hello hello hello hello
}
