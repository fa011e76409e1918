package codec

import "fmt"

// rleCodec implements PackBits-style run-length encoding. It is the
// cheapest non-trivial codec in the pool: near-memcpy speed, useful only
// on data with long byte runs (zero-padded records, sparse matrices).
//
// Stream grammar: a control byte n followed by payload.
//
//	n in [0,127]   -> copy the next n+1 literal bytes
//	n in [129,255] -> repeat the next byte 257-n times (runs of 2..128)
//	n == 128       -> reserved (never emitted)
type rleCodec struct{}

func (rleCodec) Name() string { return "rle" }
func (rleCodec) ID() ID       { return idRLE }

func (rleCodec) Compress(dst, src []byte) ([]byte, error) {
	i := 0
	for i < len(src) {
		// Measure the run starting at i.
		run := 1
		for i+run < len(src) && run < 128 && src[i+run] == src[i] {
			run++
		}
		if run >= 2 {
			dst = append(dst, byte(257-run), src[i])
			i += run
			continue
		}
		// Collect literals until the next run of >= 3 (emitting a run of 2
		// as a run costs the same as literals, so require 3 to switch).
		start := i
		i++
		for i < len(src) && i-start < 128 {
			if i+2 < len(src) && src[i] == src[i+1] && src[i] == src[i+2] {
				break
			}
			i++
		}
		dst = append(dst, byte(i-start-1))
		dst = append(dst, src[start:i]...)
	}
	return dst, nil
}

func (rleCodec) Decompress(dst, src []byte, srcLen int) ([]byte, error) {
	base := len(dst)
	i := 0
	for i < len(src) {
		n := src[i]
		i++
		switch {
		case n <= 127:
			lit := int(n) + 1
			if i+lit > len(src) {
				return nil, fmt.Errorf("%w: rle literal overruns input", errCorrupt)
			}
			dst = append(dst, src[i:i+lit]...)
			i += lit
		case n >= 129:
			if i >= len(src) {
				return nil, fmt.Errorf("%w: rle run missing byte", errCorrupt)
			}
			count := 257 - int(n)
			b := src[i]
			i++
			for k := 0; k < count; k++ {
				dst = append(dst, b)
			}
		default:
			return nil, fmt.Errorf("%w: rle reserved control byte", errCorrupt)
		}
	}
	if len(dst)-base != srcLen {
		return nil, fmt.Errorf("%w: rle produced %d bytes, want %d", errCorrupt, len(dst)-base, srcLen)
	}
	return dst, nil
}
