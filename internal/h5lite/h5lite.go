// Package h5lite is a minimal self-describing array container standing in
// for HDF5 in the reproduction (see DESIGN.md §2). Like HDF5 it carries a
// magic superblock and typed, named, multi-dimensional datasets, so the
// Input Analyzer's "metadata parsing of self-described portable data
// representations" fast path has something real to parse. Unlike HDF5 it
// is deliberately tiny: one flat file, little-endian, no chunking.
//
// Layout:
//
//	superblock: "H5LT" | u8 version | u32 ndatasets
//	dataset:    u16 nameLen | name | u8 dtype | u8 dist (255 = unknown)
//	            | u8 ndims | ndims x u64 dims | u64 dataLen | data
package h5lite

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hcompress/internal/stats"
)

// magic is the superblock signature (matches the analyzer's h5liteMagic).
var magic = [4]byte{'H', '5', 'L', 'T'}

// version is the current format version.
const version = 1

// errBadFormat is returned for malformed containers.
var errBadFormat = errors.New("h5lite: malformed container")

const distUnknown = 255

// Dataset is one named, typed array.
type Dataset struct {
	Name string
	Type stats.DataType
	// Dist optionally records the content distribution (a writer-side
	// hint HCompress exploits); nil means unknown.
	Dist *stats.Dist
	Dims []uint64
	Data []byte
}

// Elems returns the number of elements implied by Dims.
func (d Dataset) Elems() uint64 {
	if len(d.Dims) == 0 {
		return 0
	}
	n := uint64(1)
	for _, v := range d.Dims {
		n *= v
	}
	return n
}

// File is an in-memory h5lite container.
type File struct {
	Datasets []Dataset
}

// Add appends a dataset.
func (f *File) Add(d Dataset) { f.Datasets = append(f.Datasets, d) }

// Lookup finds a dataset by name.
func (f *File) Lookup(name string) (Dataset, bool) {
	for _, d := range f.Datasets {
		if d.Name == name {
			return d, true
		}
	}
	return Dataset{}, false
}

// Encode serializes the container.
func (f *File) Encode() ([]byte, error) {
	size := 9
	for _, d := range f.Datasets {
		if len(d.Name) > 65535 {
			return nil, fmt.Errorf("h5lite: dataset name too long")
		}
		if len(d.Dims) > 255 {
			return nil, fmt.Errorf("h5lite: too many dimensions")
		}
		size += 2 + len(d.Name) + 3 + 8*len(d.Dims) + 8 + len(d.Data)
	}
	out := make([]byte, 0, size)
	out = append(out, magic[:]...)
	out = append(out, version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(f.Datasets)))
	for _, d := range f.Datasets {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(d.Name)))
		out = append(out, d.Name...)
		out = append(out, byte(d.Type))
		if d.Dist != nil {
			out = append(out, byte(*d.Dist))
		} else {
			out = append(out, distUnknown)
		}
		out = append(out, byte(len(d.Dims)))
		for _, v := range d.Dims {
			out = binary.LittleEndian.AppendUint64(out, v)
		}
		out = binary.LittleEndian.AppendUint64(out, uint64(len(d.Data)))
		out = append(out, d.Data...)
	}
	return out, nil
}

// Decode parses a container. Dataset Data slices alias buf.
func Decode(buf []byte) (*File, error) {
	if len(buf) < 9 || buf[0] != magic[0] || buf[1] != magic[1] || buf[2] != magic[2] || buf[3] != magic[3] {
		return nil, fmt.Errorf("%w: bad magic", errBadFormat)
	}
	if buf[4] != version {
		return nil, fmt.Errorf("%w: version %d", errBadFormat, buf[4])
	}
	n := int(binary.LittleEndian.Uint32(buf[5:]))
	pos := 9
	f := &File{}
	for i := 0; i < n; i++ {
		if pos+2 > len(buf) {
			return nil, fmt.Errorf("%w: truncated name length", errBadFormat)
		}
		nameLen := int(binary.LittleEndian.Uint16(buf[pos:]))
		pos += 2
		if pos+nameLen+3 > len(buf) {
			return nil, fmt.Errorf("%w: truncated header", errBadFormat)
		}
		d := Dataset{Name: string(buf[pos : pos+nameLen])}
		pos += nameLen
		d.Type = stats.DataType(buf[pos])
		distB := buf[pos+1]
		ndims := int(buf[pos+2])
		pos += 3
		if distB != distUnknown {
			dist := stats.Dist(distB)
			d.Dist = &dist
		}
		if pos+8*ndims+8 > len(buf) {
			return nil, fmt.Errorf("%w: truncated dims", errBadFormat)
		}
		for k := 0; k < ndims; k++ {
			d.Dims = append(d.Dims, binary.LittleEndian.Uint64(buf[pos:]))
			pos += 8
		}
		dataLen := binary.LittleEndian.Uint64(buf[pos:])
		pos += 8
		if uint64(len(buf)-pos) < dataLen {
			return nil, fmt.Errorf("%w: truncated data", errBadFormat)
		}
		d.Data = buf[pos : pos+int(dataLen)]
		pos += int(dataLen)
		f.Datasets = append(f.Datasets, d)
	}
	if pos != len(buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", errBadFormat, len(buf)-pos)
	}
	return f, nil
}
