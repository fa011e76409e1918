package codec

import (
	"bytes"
	"testing"
)

// TestLZ4FastPathSlack sweeps one sequence of every fast-path shape
// (literal and match nibbles below 15, offsets on both sides of the 8-
// and 16-byte copy strides) across every distance to the end of the
// output, and decodes each stream into an exact-capacity region. The
// fast path's overshooting copies must stay inside the region wherever
// the sequence sits, and the bytes must match a byte-at-a-time expansion.
func TestLZ4FastPathSlack(t *testing.T) {
	var rng splitmix64 = 0x1A4
	head := make([]byte, 40)
	rng.fill(head)
	noise := make([]byte, 64)
	rng.fill(noise)
	for lit := 0; lit < 15; lit++ {
		for mlen := lz4MinMatch; mlen < 15+lz4MinMatch; mlen++ {
			for _, off := range []int{1, 3, 7, 8, 9, 15, 16, 17, 40} {
				for tail := 0; tail <= lz4FastOut+2; tail++ {
					// One opening sequence so the window holds 40+ bytes,
					// the sequence under test, and a literal-only tail.
					stream := lz4EmitSequence(nil, head, 1, lz4MinMatch)
					want := append(append([]byte(nil), head...), bytes.Repeat(head[39:], lz4MinMatch)...)
					stream = lz4EmitSequence(stream, noise[:lit], off, mlen)
					want = append(want, noise[:lit]...)
					for k := 0; k < mlen; k++ {
						want = append(want, want[len(want)-off])
					}
					stream = lz4EmitSequence(stream, noise[lit:lit+tail], 0, 0)
					want = append(want, noise[lit:lit+tail]...)
					region := make([]byte, 0, len(want))
					got, err := lz4Codec{}.Decompress(region, stream, len(want))
					if err != nil {
						t.Fatalf("lit %d mlen %d off %d tail %d: %v", lit, mlen, off, tail, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("lit %d mlen %d off %d tail %d: output differs", lit, mlen, off, tail)
					}
				}
			}
		}
	}
}
