package codec

import (
	"encoding/binary"
	"fmt"
)

// quicklzCodec targets structured binary data (integer and float arrays):
// alongside a conventional hash-table LZ it detects runs of identical
// 32-bit words, the dominant redundancy in zero-filled or slowly-varying
// numeric columns. This mirrors quickLZ's historical niche ("works best
// for integer data").
//
// Stream grammar:
//
//	0x00..0x7F           literal run of tag+1 bytes (1..128)
//	0x80..0xBF           match: len = (tag & 0x3F) + 4, 2-byte LE offset
//	0xC0..0xFF           word run: repeat the previous 4 output bytes
//	                     (tag & 0x3F) + 1 times (4..256 bytes)
type quicklzCodec struct{}

func (quicklzCodec) Name() string { return "quicklz" }
func (quicklzCodec) ID() ID       { return idQuickLZ }

const (
	qlzHashLog   = 14
	qlzMinMatch  = 4
	qlzMaxMatch  = 0x3F + qlzMinMatch
	qlzWindow    = 65535
	qlzMaxWordRe = 0x3F + 1
)

func (quicklzCodec) Compress(dst, src []byte) ([]byte, error) {
	if len(src) < 12 {
		return qlzEmitLiterals(dst, src), nil
	}
	var table [1 << qlzHashLog]int32 // stack: no per-call allocation
	for i := range table {
		table[i] = -1
	}
	hash := func(v uint32) uint32 { return (v * 2654435761) >> (32 - qlzHashLog) }

	anchor := 0
	i := 4 // word-run detection needs 4 bytes of history
	limit := len(src) - 8
	for i < limit {
		v := binary.LittleEndian.Uint32(src[i:])
		// Word-run: current word equals the previous word.
		if v == binary.LittleEndian.Uint32(src[i-4:]) {
			words := 1
			for i+4*(words+1) <= len(src) && words < qlzMaxWordRe &&
				binary.LittleEndian.Uint32(src[i+4*words:]) == v {
				words++
			}
			dst = qlzEmitLiterals(dst, src[anchor:i])
			dst = append(dst, 0xC0|byte(words-1))
			i += 4 * words
			anchor = i
			continue
		}
		h := hash(v)
		cand := table[h]
		table[h] = int32(i)
		if cand >= 0 && i-int(cand) <= qlzWindow && binary.LittleEndian.Uint32(src[cand:]) == v {
			maxMatch := len(src) - 4 - i
			if maxMatch > qlzMaxMatch {
				maxMatch = qlzMaxMatch
			}
			mlen := lzExtendMatch(src, int(cand), i, 4, maxMatch)
			dst = qlzEmitLiterals(dst, src[anchor:i])
			off := i - int(cand)
			dst = append(dst, 0x80|byte(mlen-qlzMinMatch), byte(off), byte(off>>8))
			i += mlen
			anchor = i
			continue
		}
		i++
	}
	return qlzEmitLiterals(dst, src[anchor:]), nil
}

func qlzEmitLiterals(dst, lits []byte) []byte {
	for len(lits) > 0 {
		n := len(lits)
		if n > 128 {
			n = 128
		}
		dst = append(dst, byte(n-1))
		dst = append(dst, lits[:n]...)
		lits = lits[n:]
	}
	return dst
}

func (quicklzCodec) Decompress(dst, src []byte, srcLen int) ([]byte, error) {
	base := len(dst)
	i := 0
	for i < len(src) {
		tag := src[i]
		i++
		switch {
		case tag <= 0x7F:
			n := int(tag) + 1
			if i+n > len(src) {
				return nil, fmt.Errorf("%w: quicklz literals overrun", errCorrupt)
			}
			dst = append(dst, src[i:i+n]...)
			i += n
		case tag <= 0xBF:
			if i+2 > len(src) {
				return nil, fmt.Errorf("%w: quicklz truncated offset", errCorrupt)
			}
			mlen := int(tag&0x3F) + qlzMinMatch
			offset := int(src[i]) | int(src[i+1])<<8
			i += 2
			var err error
			dst, err = lzCopyMatch(dst, base, offset, mlen, "quicklz")
			if err != nil {
				return nil, err
			}
		default:
			words := int(tag&0x3F) + 1
			if len(dst)-base < 4 {
				return nil, fmt.Errorf("%w: quicklz word run without history", errCorrupt)
			}
			var err error
			dst, err = lzCopyMatch(dst, base, 4, 4*words, "quicklz")
			if err != nil {
				return nil, err
			}
		}
	}
	if len(dst)-base != srcLen {
		return nil, fmt.Errorf("%w: quicklz produced %d bytes, want %d", errCorrupt, len(dst)-base, srcLen)
	}
	return dst, nil
}
