package codec

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"

	"hcompress/internal/bufpool"
)

// zlibCodec wraps the standard library's DEFLATE at maximum compression.
// It is the only codec in the pool not implemented from scratch (DEFLATE
// is in the Go standard library, which the reproduction is allowed to use)
// and plays the paper's "heavy, general-purpose" role: high ratio, slow
// compression, moderately fast decompression.
type zlibCodec struct{}

func (zlibCodec) Name() string { return "zlib" }
func (zlibCodec) ID() ID       { return idZlib }

// sliceWriter adapts the append-style dst contract to io.Writer so the
// flate writer streams straight into the caller's buffer with no
// intermediate bytes.Buffer + copy.
type sliceWriter struct{ b []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

// zlibEnc bundles the expensive flate writer with its destination adapter
// so a pooled Get yields everything Compress needs without allocating.
type zlibEnc struct {
	sw sliceWriter
	w  *flate.Writer
}

var zlibEncPool = sync.Pool{
	New: func() any {
		w, err := flate.NewWriter(io.Discard, flate.BestCompression)
		if err != nil {
			panic(err)
		}
		return &zlibEnc{w: w}
	},
}

// zlibDec pairs a reusable flate reader with the bytes.Reader it draws
// from; flate reader state is large, so pooling it matters as much as
// pooling the writer.
type zlibDec struct {
	br bytes.Reader
	r  io.ReadCloser
}

var zlibDecPool = sync.Pool{
	New: func() any {
		d := &zlibDec{}
		d.br.Reset(nil)
		d.r = flate.NewReader(&d.br)
		return d
	},
}

func (zlibCodec) Compress(dst, src []byte) ([]byte, error) {
	e := zlibEncPool.Get().(*zlibEnc)
	e.sw.b = dst
	e.w.Reset(&e.sw)
	if _, err := e.w.Write(src); err != nil {
		e.sw.b = nil
		zlibEncPool.Put(e)
		return nil, fmt.Errorf("zlib: %w", err)
	}
	if err := e.w.Close(); err != nil {
		e.sw.b = nil
		zlibEncPool.Put(e)
		return nil, fmt.Errorf("zlib: %w", err)
	}
	out := e.sw.b
	e.sw.b = nil // drop the reference so the pool doesn't pin caller buffers
	zlibEncPool.Put(e)
	return out, nil
}

func (zlibCodec) Decompress(dst, src []byte, srcLen int) ([]byte, error) {
	d := zlibDecPool.Get().(*zlibDec)
	d.br.Reset(src)
	if err := d.r.(flate.Resetter).Reset(&d.br, nil); err != nil {
		zlibDecPool.Put(d)
		return nil, fmt.Errorf("zlib: %w", err)
	}
	base := len(dst)
	if cap(dst)-base < srcLen {
		// Size once from srcLen via the arena; the old backing array is the
		// caller's and stays theirs.
		grown := bufpool.Get(base + srcLen)
		copy(grown, dst[:base])
		dst = grown
	}
	dst = dst[:base+srcLen]
	if _, err := io.ReadFull(d.r, dst[base:]); err != nil {
		d.br.Reset(nil)
		zlibDecPool.Put(d)
		return nil, fmt.Errorf("%w: zlib: %v", errCorrupt, err)
	}
	// The stream must end exactly here.
	var one [1]byte
	n, _ := d.r.Read(one[:])
	d.br.Reset(nil)
	zlibDecPool.Put(d)
	if n != 0 {
		return nil, fmt.Errorf("%w: zlib trailing data", errCorrupt)
	}
	return dst, nil
}
