package codec

// Burrows-Wheeler machinery shared by the bzip2 and bsc codecs: the
// forward and inverse BWT with an implicit sentinel, each fused with its
// move-to-front stage, and zero-run-length coding of the MTF output. The
// suffix sorter the forward transform stands on is in sais.go.
//
// Every stage draws its work buffers from the caller's bufpool.Scratch, so
// a worker that keeps one Scratch across blocks runs the whole pipeline
// without per-call allocation. Returned slices alias Scratch fields (or
// the caller's dst) and are only valid until the next call that uses the
// same field.

import (
	"bytes"

	"hcompress/internal/bufpool"
)

// bwtForwardMTF computes the Burrows-Wheeler transform of src with an
// implicit sentinel and move-to-front codes it in the same pass over the
// suffix array, into s.BWT. ptr is the row (of the n+1 rows of the
// conceptual matrix) at which the sentinel character was elided. Output is
// identical to the single-stage pair kept as the test oracle
// (bwt_reference_test.go: mtfEncode over bwtForward).
func bwtForwardMTF(s *bufpool.Scratch, src []byte) (mtf []byte, ptr int) {
	if len(src) == 0 {
		return nil, 0
	}
	return bwtEmitMTF(s, src, suffixArray(s, src))
}

// bwtEmitMTF is bwtForwardMTF's pass over the suffix array sa of src
// (len(src) > 0), apart so that the benchmark can time it without the sort.
func bwtEmitMTF(s *bufpool.Scratch, src []byte, sa []int32) (mtf []byte, ptr int) {
	n := len(src)
	mtf = bufpool.GrowBytes(&s.BWT, n)
	var order [256]byte
	for i := range order {
		order[i] = byte(i)
	}
	b := src[n-1] // row 0: the empty (sentinel) suffix; L-char is the last byte
	idx := int(b)
	mtf[0] = byte(idx)
	copy(order[1:idx+1], order[:idx])
	order[0] = b
	w := 1
	for j, pos := range sa {
		if pos == 0 {
			ptr = j + 1 // +1 for the implicit row 0
			continue
		}
		b = src[pos-1]
		if b == order[0] { // the BWT's runs make rank 0 the common case
			mtf[w] = 0
			w++
			continue
		}
		idx = bytes.IndexByte(order[:], b) // order holds every byte value
		mtf[w] = byte(idx)
		copy(order[1:idx+1], order[:idx])
		order[0] = b
		w++
	}
	return mtf, ptr
}

// bwtInverseMTF undoes the move-to-front coding (in place over mtf) and
// inverts the BWT in one pipeline: the MTF decode loop doubles as the
// inverse's counting pass, and the LF chase runs over entries packed as
// nextRow<<8 | L-byte, so the per-step sentinel compare and index
// adjustment disappear (the sentinel row is a negative entry). Bytes
// appended to dst are identical to the oracle's mtfDecode followed by
// bwtInverse.
func bwtInverseMTF(s *bufpool.Scratch, dst, mtf []byte, ptr int) ([]byte, error) {
	n := len(mtf)
	if n == 0 {
		return dst, nil
	}
	if ptr <= 0 || ptr > n {
		return nil, errCorrupt
	}
	var order [256]byte
	for i := range order {
		order[i] = byte(i)
	}
	var count [256]int
	for k, idx := range mtf {
		b := order[idx]
		mtf[k] = b
		copy(order[1:int(idx)+1], order[:idx])
		order[0] = b
		count[b]++
	}
	bwt := mtf // now holds the raw transform
	// C[c]: number of characters strictly smaller than c in the L column,
	// counting the sentinel (smallest) once.
	var c [256]int
	sum := 1
	for v := 0; v < 256; v++ {
		c[v] = sum
		sum += count[v]
	}
	// Packed LF entries: next row in the high bits, the row's L-byte in the
	// low 8. Rows fit: n <= 1<<20, so nextRow<<8 < 1<<28.
	lf := bufpool.GrowI32(&s.LF, n+1)
	var occ [256]int
	for i := 0; i < ptr; i++ {
		b := bwt[i]
		lf[i] = int32(c[b]+occ[b])<<8 | int32(b)
		occ[b]++
	}
	lf[ptr] = -1 // reaching the sentinel mid-chase means corruption
	for i := ptr + 1; i <= n; i++ {
		b := bwt[i-1]
		lf[i] = int32(c[b]+occ[b])<<8 | int32(b)
		occ[b]++
	}
	base := len(dst)
	dst = extendSlice(dst, n)
	out := dst[base:]
	row := int32(0) // row 0 = empty suffix; L[0] is the last text byte
	for k := n - 1; k >= 0; k-- {
		e := lf[row]
		if e < 0 {
			return nil, errCorrupt // sentinel reached early
		}
		out[k] = byte(e)
		row = e >> 8
	}
	return dst, nil
}

// extendSlice lengthens dst by n bytes (unspecified contents), reallocating
// only when capacity is short.
func extendSlice(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst[:len(dst)+n]
	}
	grown := make([]byte, len(dst)+n)
	copy(grown, dst)
	return grown
}

// rle0Encode run-length-codes zeros in an MTF stream into s.RLE: a zero
// byte is followed by a varint-style continuation of (runLength-1); other
// bytes pass through. MTF output of BWT text is zero-dominated, so this is
// where most of the bzip2-family ratio comes from.
func rle0Encode(s *bufpool.Scratch, src []byte) []byte {
	out := s.RLE[:0]
	i := 0
	for i < len(src) {
		b := src[i]
		if b != 0 {
			out = append(out, b)
			i++
			continue
		}
		run := 1
		for i+run < len(src) && src[i+run] == 0 {
			run++
		}
		out = append(out, 0)
		v := run - 1
		for v >= 0x80 {
			out = append(out, byte(v)|0x80)
			v >>= 7
		}
		out = append(out, byte(v))
		i += run
	}
	s.RLE = out
	return out
}

// rle0Decode inverts rle0Encode into s.MTF. wantLen bounds the output as a
// corruption guard.
func rle0Decode(s *bufpool.Scratch, src []byte, wantLen int) ([]byte, error) {
	out := bufpool.GrowBytes(&s.MTF, wantLen)[:0]
	i := 0
	for i < len(src) {
		b := src[i]
		i++
		if b != 0 {
			out = append(out, b)
			continue
		}
		run := 0
		shift := 0
		for {
			if i >= len(src) || shift > 28 {
				return nil, errCorrupt
			}
			v := src[i]
			i++
			run |= int(v&0x7F) << shift
			if v&0x80 == 0 {
				break
			}
			shift += 7
		}
		run++
		if len(out)+run > wantLen {
			return nil, errCorrupt
		}
		for k := 0; k < run; k++ {
			out = append(out, 0)
		}
	}
	if len(out) != wantLen {
		return nil, errCorrupt
	}
	return out, nil
}
