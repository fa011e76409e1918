package codec

// Binary adaptive range coder (LZMA-style, 11-bit probabilities, shift-5
// adaptation), shared by the bsc and lzma codecs.

const (
	rcTopBits   = 24
	rcTop       = 1 << rcTopBits
	rcProbBits  = 11
	rcProbInit  = 1 << (rcProbBits - 1) // p = 0.5
	rcProbMax   = 1 << rcProbBits
	rcMoveShift = 5
)

type rcEncoder struct {
	low       uint64
	rng       uint32
	cache     byte
	cacheSize int64
	out       []byte
}

// init readies e for encoding into dst. Encoders are used by value on the
// caller's stack; there is no constructor allocation.
func (e *rcEncoder) init(dst []byte) {
	e.low = 0
	e.rng = 0xFFFFFFFF
	e.cache = 0
	e.cacheSize = 1
	e.out = dst
}

// shiftLow renormalises by one byte.
func (e *rcEncoder) shiftLow() { e.low = e.shift(e.low) }

// shift is shiftLow for a loop that holds low in a local: it moves low's
// top byte towards the output and returns low shifted up by that byte. A
// byte of 0xFF cannot be written until it is known whether a carry will
// still reach it, so it is only counted (cacheSize) behind the last byte
// that was not (cache).
func (e *rcEncoder) shift(low uint64) uint64 {
	if uint32(low) < 0xFF000000 || low>>32 != 0 {
		carry := byte(low >> 32)
		temp := e.cache
		for {
			e.out = append(e.out, temp+carry)
			temp = 0xFF
			e.cacheSize--
			if e.cacheSize == 0 {
				break
			}
		}
		e.cache = byte(low >> 24)
	}
	e.cacheSize++
	return (low << 8) & 0xFFFFFFFF
}

// encodeBit codes bit with the adaptive probability *p (of the bit being 0).
func (e *rcEncoder) encodeBit(p *uint16, bit int) {
	bound := (e.rng >> rcProbBits) * uint32(*p)
	if bit == 0 {
		e.rng = bound
		*p += (rcProbMax - *p) >> rcMoveShift
	} else {
		e.low += uint64(bound)
		e.rng -= bound
		*p -= *p >> rcMoveShift
	}
	for e.rng < rcTop {
		e.shiftLow()
		e.rng <<= 8
	}
}

// encodeDirect codes n equiprobable bits of v (MSB first).
func (e *rcEncoder) encodeDirect(v uint32, n uint) {
	for ; n > 0; n-- {
		e.rng >>= 1
		if (v>>(n-1))&1 == 1 {
			e.low += uint64(e.rng)
		}
		for e.rng < rcTop {
			e.shiftLow()
			e.rng <<= 8
		}
	}
}

// encodeTree codes the nbits-wide value v through a binary probability tree
// (probs must have at least 1<<nbits entries; index 0 is unused).
//
// This is the encoder's hottest loop (bsc and lzma make one call per
// literal byte), so like decodeTree it keeps low and rng in locals for the
// whole walk; the decisions, the renormalisation points and the bytes
// written are encodeBit's.
func (e *rcEncoder) encodeTree(probs []uint16, v uint32, nbits uint) {
	low, rng := e.low, e.rng
	m := uint32(1)
	for i := nbits; i > 0; i-- {
		bit := v >> (i - 1) & 1
		one := -bit // all ones for a 1 bit
		p := uint32(probs[m])
		bound := (rng >> rcProbBits) * p
		low += uint64(bound & one)
		rng = bound + (rng-2*bound)&one
		probs[m] = uint16(p + ((rcProbMax-p)>>rcMoveShift)&^one - (p>>rcMoveShift)&one)
		m = m<<1 | bit
		for rng < rcTop {
			low = e.shift(low)
			rng <<= 8
		}
	}
	e.low, e.rng = low, rng
}

func (e *rcEncoder) flush() []byte {
	for i := 0; i < 5; i++ {
		e.shiftLow()
	}
	return e.out
}

type rcDecoder struct {
	rng  uint32
	code uint32
	src  []byte
	pos  int
}

// init readies d for decoding from src. Decoders are used by value on the
// caller's stack; there is no constructor allocation.
func (d *rcDecoder) init(src []byte) {
	d.rng = 0xFFFFFFFF
	d.code = 0
	d.src = src
	d.pos = 0
	for i := 0; i < 5; i++ {
		d.code = d.code<<8 | uint32(d.next())
	}
}

func (d *rcDecoder) next() byte {
	if d.pos < len(d.src) {
		b := d.src[d.pos]
		d.pos++
		return b
	}
	// Reading past the end yields zeros; corrupt streams are caught by
	// the callers' length checks.
	d.pos++
	return 0
}

func (d *rcDecoder) decodeBit(p *uint16) int {
	rng, code := d.rng, d.code
	bound := (rng >> rcProbBits) * uint32(*p)
	var bit int
	if code < bound {
		rng = bound
		*p += (rcProbMax - *p) >> rcMoveShift
	} else {
		code -= bound
		rng -= bound
		*p -= *p >> rcMoveShift
		bit = 1
	}
	for rng < rcTop {
		var b byte
		if d.pos < len(d.src) {
			b = d.src[d.pos]
		}
		d.pos++ // past-the-end reads yield zeros; see next()
		code = code<<8 | uint32(b)
		rng <<= 8
	}
	d.rng, d.code = rng, code
	return bit
}

func (d *rcDecoder) decodeDirect(n uint) uint32 {
	rng, code := d.rng, d.code
	src, pos := d.src, d.pos
	var res uint32
	for ; n > 0; n-- {
		rng >>= 1
		res <<= 1
		if code >= rng {
			code -= rng
			res |= 1
		}
		for rng < rcTop {
			var b byte
			if pos < len(src) {
				b = src[pos]
			}
			pos++
			code = code<<8 | uint32(b)
			rng <<= 8
		}
	}
	d.rng, d.code, d.pos = rng, code, pos
	return res
}

// decodeTree is the decoder's hottest loop (bsc and lzma burn one call per
// literal byte), so the whole coder state lives in locals for the duration
// of the walk instead of round-tripping through the struct on every bit.
func (d *rcDecoder) decodeTree(probs []uint16, nbits uint) uint32 {
	rng, code := d.rng, d.code
	src, pos := d.src, d.pos
	m := uint32(1)
	for i := uint(0); i < nbits; i++ {
		p := probs[m]
		bound := (rng >> rcProbBits) * uint32(p)
		if code < bound {
			rng = bound
			probs[m] = p + (rcProbMax-p)>>rcMoveShift
			m = m << 1
		} else {
			code -= bound
			rng -= bound
			probs[m] = p - p>>rcMoveShift
			m = m<<1 | 1
		}
		for rng < rcTop {
			var b byte
			if pos < len(src) {
				b = src[pos]
			}
			pos++
			code = code<<8 | uint32(b)
			rng <<= 8
		}
	}
	d.rng, d.code, d.pos = rng, code, pos
	return m - 1<<nbits
}

// overran reports whether the decoder consumed more bytes than the input
// held (a corruption indicator).
func (d *rcDecoder) overran() bool {
	return d.pos > len(d.src)+5 // allow the flush tail
}

// initProbs resets every adaptive probability in p to 0.5. Callers carve p
// out of a Scratch slab so repeated calls reuse one allocation.
func initProbs(p []uint16) {
	for i := range p {
		p[i] = rcProbInit
	}
}
