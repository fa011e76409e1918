package codec

// Shared hot-loop helpers for the LZ77 family (lz4, lzo, pithy, snappy,
// quicklz, brotli, lzma): word-at-a-time match extension on the compress
// side and an overlap-aware bulk match copy on the decompress side.

import (
	"encoding/binary"
	"fmt"
	mathbits "math/bits"
)

// lzExtendMatch extends a match between src[c:] and src[i:] (c < i) that
// already agrees on the first n bytes, returning the final match length,
// at most max. It compares 8 bytes per load and locates the first
// mismatching byte with a trailing-zero count, so the result is exactly
// what the byte-at-a-time loop would produce.
//
// Callers must guarantee i+max <= len(src); every compressor here derives
// max from len(src)-i minus a constant tail reserve, which satisfies it.
func lzExtendMatch(src []byte, c, i, n, max int) int {
	for n+8 <= max {
		x := binary.LittleEndian.Uint64(src[c+n:]) ^ binary.LittleEndian.Uint64(src[i+n:])
		if x != 0 {
			return n + mathbits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for n < max && src[c+n] == src[i+n] {
		n++
	}
	return n
}

// lzCopyMatch appends mlen bytes starting offset bytes back from the end of
// dst, handling the overlapping-copy case shared by every LZ codec here.
// base is the index in dst where this payload began (matches may not reach
// before it).
//
// Overlapping matches (offset < mlen) are run patterns; instead of a
// byte-at-a-time loop the copy doubles the materialized region each pass,
// so a length-L run costs O(log(L/offset)) copy calls.
func lzCopyMatch(dst []byte, base, offset, mlen int, name string) ([]byte, error) {
	if offset <= 0 || offset > len(dst)-base {
		return nil, fmt.Errorf("%w: %s match offset %d out of window", errCorrupt, name, offset)
	}
	d := len(dst)
	dst = extendSlice(dst, mlen)
	end := d + mlen
	s := d - offset
	if offset >= mlen {
		copy(dst[d:end], dst[s:s+mlen])
		return dst, nil
	}
	for d < end {
		d += copy(dst[d:end], dst[s:d])
	}
	return dst, nil
}
