package codec

import (
	"bytes"
	"sort"
	"testing"

	"hcompress/internal/bufpool"
)

// sortedNames gives the corpus a deterministic iteration order (Go maps
// randomize theirs), which the reference-comparison below depends on.
func sortedNames(m map[string][]byte) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// TestScratchReuseNoStateLeak interleaves every codec over ONE shared
// Scratch — compressing and decompressing different inputs back to back —
// and checks each result byte-for-byte against the plain Codec interface
// (which borrows a fresh-enough pooled Scratch per call). Any state a
// codec leaves behind beyond buffer capacity shows up as a diff.
func TestScratchReuseNoStateLeak(t *testing.T) {
	inputs := corpus(t)
	shared := &bufpool.Scratch{}

	// Reference outputs via the plain interface, computed first so the
	// shared Scratch sees a completely different call order.
	type ref struct {
		comp []byte
		name string
		in   []byte
	}
	var refs []ref
	names := sortedNames(inputs)
	for _, c := range All() {
		for _, name := range names {
			in := inputs[name]
			comp, err := c.Compress(nil, in)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name(), name, err)
			}
			refs = append(refs, ref{comp: comp, name: c.Name() + "/" + name, in: in})
		}
	}

	// Round 1: compress everything through the shared Scratch, interleaved
	// across codecs, and demand byte-identical streams.
	i := 0
	for _, c := range All() {
		for _, name := range names {
			in := inputs[name]
			comp, err := CompressWith(shared, c, nil, in)
			if err != nil {
				t.Fatalf("%s/%s: scratch compress: %v", c.Name(), name, err)
			}
			want := refs[i].comp
			if refs[i].name != c.Name()+"/"+name {
				t.Fatalf("iteration order mismatch: %s vs %s", refs[i].name, c.Name()+"/"+name)
			}
			if !bytes.Equal(comp, want) {
				t.Errorf("%s/%s: scratch compress differs from plain compress", c.Name(), name)
			}
			i++
		}
	}

	// Round 2: decompress everything through the same shared Scratch.
	i = 0
	for _, c := range All() {
		for _, name := range names {
			in := inputs[name]
			dec, err := DecompressWith(shared, c, nil, refs[i].comp, len(in))
			if err != nil {
				t.Fatalf("%s/%s: scratch decompress: %v", c.Name(), name, err)
			}
			if !bytes.Equal(dec, in) {
				t.Errorf("%s/%s: scratch decompress mismatch", c.Name(), name)
			}
			i++
		}
	}

	// Round 3: ping-pong compress/decompress pairs on the shared Scratch so
	// each codec's decode state runs right before another codec's encode.
	for _, c := range All() {
		for _, name := range names {
			in := inputs[name]
			comp, err := CompressWith(shared, c, nil, in)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name(), name, err)
			}
			dec, err := DecompressWith(shared, c, nil, comp, len(in))
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name(), name, err)
			}
			if !bytes.Equal(dec, in) {
				t.Errorf("%s/%s: interleaved round-trip mismatch", c.Name(), name)
			}
		}
	}
}

// TestScratchDstOverlap proves the manager's calling convention is safe:
// dst is the Scratch's own Comp/Dec buffer while the codec draws its work
// buffers from the same Scratch.
func TestScratchDstOverlap(t *testing.T) {
	inputs := corpus(t)
	s := &bufpool.Scratch{}
	for _, c := range All() {
		for _, name := range sortedNames(inputs) {
			in := inputs[name]
			dst := bufpool.GrowBytes(&s.Comp, 0)[:0]
			comp, err := CompressWith(s, c, dst, in)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name(), name, err)
			}
			s.Comp = comp[:0]
			ddst := bufpool.GrowBytes(&s.Dec, 0)[:0]
			dec, err := DecompressWith(s, c, ddst, comp, len(in))
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name(), name, err)
			}
			s.Dec = dec[:0]
			if !bytes.Equal(dec, in) {
				t.Errorf("%s/%s: round-trip through Scratch dst mismatch", c.Name(), name)
			}
		}
	}
}

// TestDecodeInPlaceAllocFree holds every codec to the Compression
// Manager's buffer shape: DecompressWith into an exact-capacity region
// carved out of a larger buffer (buf[p:p:p+n], as decompressSub carves
// it) must fill that region in place, leaving the bytes before and after
// it alone. Through one warm Scratch, CompressWith and DecompressWith
// must then allocate nothing — except zlib's decode, which wraps the
// standard library's flate reader, and that allocates per block.
func TestDecodeInPlaceAllocFree(t *testing.T) {
	const prefix, sentinel, fill = 13, 16, 0xA5
	s := new(bufpool.Scratch)
	for _, in := range goldenCorpus() {
		n := len(in.data)
		buf := make([]byte, prefix+n+sentinel)
		for _, c := range All() {
			name := c.Name() + "/" + in.name
			comp, err := CompressWith(s, c, nil, in.data)
			if err != nil {
				t.Fatalf("%s: compress: %v", name, err)
			}
			for i := range buf {
				buf[i] = fill
			}
			region := buf[prefix : prefix : prefix+n]
			out, err := DecompressWith(s, c, region, comp, n)
			if err != nil {
				t.Fatalf("%s: decompress: %v", name, err)
			}
			if !bytes.Equal(out, in.data) {
				t.Fatalf("%s: round-trip mismatch", name)
			}
			if n > 0 && &out[0] != &buf[prefix] {
				t.Errorf("%s: decoded into a fresh slice, not the region", name)
			}
			for i, b := range buf {
				if (i < prefix || i >= prefix+n) && b != fill {
					t.Fatalf("%s: byte %d outside the region [%d, %d) changed", name, i, prefix, prefix+n)
				}
			}
			if raceDetectorEnabled {
				continue // -race drops sync.Pool puts at random
			}
			cdst := make([]byte, 0, cap(comp))
			if a := testing.AllocsPerRun(4, func() {
				if _, err := CompressWith(s, c, cdst, in.data); err != nil {
					t.Fatal(err)
				}
			}); a != 0 {
				t.Errorf("%s: CompressWith: %.0f allocs/op, want 0", name, a)
			}
			if c.ID() == idZlib {
				continue
			}
			if a := testing.AllocsPerRun(4, func() {
				if _, err := DecompressWith(s, c, region, comp, n); err != nil {
					t.Fatal(err)
				}
			}); a != 0 {
				t.Errorf("%s: DecompressWith: %.0f allocs/op, want 0", name, a)
			}
		}
	}
}
