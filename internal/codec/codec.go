// Package codec implements HCompress's Compression Library Pool (CLP):
// a suite of twelve compression codecs behind one interface, spanning the
// speed-versus-ratio spectrum the HCDP engine selects from.
//
// The names mirror the libraries listed in the paper (bzip2, zlib, huffman,
// brotli, bsc, lzma, lz4, lzo, pithy, snappy, quicklz) plus the mandatory
// "none" choice (c = 0 in the optimization). Every codec except zlib is
// implemented from scratch in this package; zlib wraps the standard
// library's DEFLATE. See DESIGN.md §2 for the fidelity argument.
//
// All codecs are safe for concurrent use: compression state lives on the
// stack or in per-call buffers.
package codec

import (
	"errors"
	"fmt"
	"sort"

	"hcompress/internal/bufpool"
)

// ID identifies a codec in sub-task headers. IDs are stable on-disk values;
// never renumber them.
type ID uint8

// Codec identifiers. None is the "no compression" choice that the HCDP
// engine must always be allowed to pick.
const (
	None ID = iota
	idRLE
	idHuffman
	idLZ4
	idLZO
	idPithy
	idSnappy
	idQuickLZ
	idBrotli
	idZlib
	idBzip2
	idBSC
	idLZMA
	numIDs
)

// errCorrupt is returned when a compressed payload fails validation.
var errCorrupt = errors.New("codec: corrupt compressed data")

// errUnknownCodec is returned when a header references an unregistered ID.
var errUnknownCodec = errors.New("codec: unknown codec id")

// Codec is the Compression Library Interface: a uniform facade over one
// compression algorithm.
type Codec interface {
	// Name returns the paper-facing library name (e.g. "snappy").
	Name() string
	// ID returns the stable header identifier.
	ID() ID
	// Compress appends the compressed form of src to dst and returns the
	// extended slice. Implementations must be deterministic.
	Compress(dst, src []byte) ([]byte, error)
	// Decompress appends the decompressed form of src to dst. srcLen is
	// the original (uncompressed) length recorded in the sub-task header;
	// implementations use it to size buffers and to validate output.
	Decompress(dst, src []byte, srcLen int) ([]byte, error)
}

// scratchCodec is implemented by codecs whose work buffers (suffix
// arrays, hash chains, probability tables, token streams) can live in a
// caller-owned bufpool.Scratch instead of per-call allocations. The
// Compression Manager keeps one Scratch per fan-out worker and routes
// every call through CompressWith/DecompressWith; the plain Codec
// methods remain for external callers and borrow a pooled Scratch.
//
// Implementations must be deterministic and leave no state in the
// Scratch beyond buffer capacity: output is byte-identical whether a
// Scratch is fresh, reused, or shared across different codecs.
type scratchCodec interface {
	CompressScratch(s *bufpool.Scratch, dst, src []byte) ([]byte, error)
	DecompressScratch(s *bufpool.Scratch, dst, src []byte, srcLen int) ([]byte, error)
}

// CompressWith compresses src with c, reusing s's work buffers when the
// codec supports it. s may be nil (a pooled Scratch is borrowed); dst
// follows the same append contract as Codec.Compress.
func CompressWith(s *bufpool.Scratch, c Codec, dst, src []byte) ([]byte, error) {
	sc, ok := c.(scratchCodec)
	if !ok {
		return c.Compress(dst, src)
	}
	if s == nil {
		s = bufpool.GetScratch()
		defer bufpool.PutScratch(s)
	}
	return sc.CompressScratch(s, dst, src)
}

// DecompressWith is CompressWith's inverse.
func DecompressWith(s *bufpool.Scratch, c Codec, dst, src []byte, srcLen int) ([]byte, error) {
	sc, ok := c.(scratchCodec)
	if !ok {
		return c.Decompress(dst, src, srcLen)
	}
	if s == nil {
		s = bufpool.GetScratch()
		defer bufpool.PutScratch(s)
	}
	return sc.DecompressScratch(s, dst, src, srcLen)
}

var registry [numIDs]Codec

func register(c Codec) {
	if registry[c.ID()] != nil {
		panic(fmt.Sprintf("codec: duplicate registration for id %d", c.ID()))
	}
	registry[c.ID()] = c
}

func init() {
	register(noneCodec{})
	register(rleCodec{})
	register(huffmanCodec{})
	register(lz4Codec{})
	register(lzoCodec{})
	register(pithyCodec{})
	register(snappyCodec{})
	register(quicklzCodec{})
	register(brotliCodec{})
	register(zlibCodec{})
	register(bzip2Codec{})
	register(bscCodec{})
	register(lzmaCodec{})
}

// ByID returns the codec registered under id, or errUnknownCodec.
// This is the Compression Library Factory from the paper: O(1) dispatch
// from the constant stored in sub-task metadata to an implementation.
func ByID(id ID) (Codec, error) {
	if int(id) >= len(registry) || registry[id] == nil {
		return nil, fmt.Errorf("%w: %d", errUnknownCodec, id)
	}
	return registry[id], nil
}

// ByName returns the codec with the given library name.
func ByName(name string) (Codec, error) {
	for _, c := range registry {
		if c != nil && c.Name() == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", errUnknownCodec, name)
}

// All returns every registered codec ordered by ID (None first).
func All() []Codec {
	out := make([]Codec, 0, len(registry))
	for _, c := range registry {
		if c != nil {
			out = append(out, c)
		}
	}
	return out
}

// Names returns the registered library names sorted alphabetically,
// excluding "none".
func Names() []string {
	var out []string
	for _, c := range registry {
		if c != nil && c.ID() != None {
			out = append(out, c.Name())
		}
	}
	sort.Strings(out)
	return out
}

// noneCodec is the identity transform: choice c = 0 in the HCDP engine.
type noneCodec struct{}

func (noneCodec) Name() string { return "none" }
func (noneCodec) ID() ID       { return None }

func (noneCodec) Compress(dst, src []byte) ([]byte, error) {
	return append(dst, src...), nil
}

func (noneCodec) Decompress(dst, src []byte, srcLen int) ([]byte, error) {
	if len(src) != srcLen {
		return nil, fmt.Errorf("%w: none payload %d != %d", errCorrupt, len(src), srcLen)
	}
	return append(dst, src...), nil
}
