package codec

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"hcompress/internal/bufpool"
)

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
