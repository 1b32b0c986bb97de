// Package bp implements a BP-style self-describing binary index format of
// the kind ADIOS writes (the paper's Section III: writers ship per-variable
// index records to their sub-coordinator; each sub-coordinator sorts, merges
// and writes a local index for its file; the coordinator merges local
// indices into a global index describing the whole output set).
//
// Index records carry data characteristics (per-variable min/max, following
// the authors' earlier "metadata rich IO" work) which let a reader locate
// data of interest — by name, by writer rank, or by value range — with a
// single index lookup followed by one direct read.
//
// The encoding is a compact little-endian binary layout with a magic number
// and version, written with encoding/binary. It produces real bytes: the
// examples persist indices to disk and read them back.
package bp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// Format constants.
const (
	MagicLocal  uint32 = 0xAD105001 // "ADIOS" local index
	MagicGlobal uint32 = 0xAD105002 // global index
	Version     uint16 = 1

	// maxStringLen guards decoding against corrupt length prefixes.
	maxStringLen = 1 << 16
	// maxEntries guards decoding against corrupt counts.
	maxEntries = 1 << 24
)

// minEntrySize and minLocalSize are the smallest encodings of an entry
// (empty name, no dimensions) and of a length-prefixed local index within a
// global one (empty file name, no entries). Decoding preallocates no more
// records than the remaining bytes could hold, so a corrupt count costs at
// most a few times the input's size.
var (
	minEntrySize = EntryLen("", 0)
	minLocalSize = GlobalLen(1) - GlobalLen(0) + LocalLen("")
)

// VarEntry is one variable record in a local index: where one writer's
// block of one variable lives, plus its data characteristics.
type VarEntry struct {
	// Name of the variable ("pressure", "B_x", ...).
	Name string
	// WriterRank is the producing process's rank in the output group.
	WriterRank int32
	// Offset and Length locate the block within its data file.
	Offset int64
	Length int64
	// Dims are the block's local dimensions (elements per axis).
	Dims []uint64
	// Min and Max are the block's value range (data characteristics).
	Min float64
	Max float64
}

// LocalIndex describes one data file: which variable blocks it holds.
type LocalIndex struct {
	// File is the data file's name.
	File string
	// Entries are the variable records, in canonical order once Sort has
	// been called (an index read from a step result is sorted).
	Entries []VarEntry
}

// compareEntries is the canonical entry order: (Name, WriterRank, Offset).
// The key triple is unique within any one index — a writer never emits two
// blocks of the same variable at the same offset — so every correct sort
// produces the same sequence and the algorithm is free to change.
func compareEntries(a, b *VarEntry) int {
	if a.Name != b.Name {
		if a.Name < b.Name {
			return -1
		}
		return 1
	}
	if a.WriterRank != b.WriterRank {
		return int(a.WriterRank) - int(b.WriterRank)
	}
	switch {
	case a.Offset < b.Offset:
		return -1
	case a.Offset > b.Offset:
		return 1
	}
	return 0
}

// Sort orders entries canonically, by (Name, WriterRank, Offset). A
// simulated step only logs where its blocks land and builds its index when
// the index is read, so Sort runs once per read and never on a step's path.
func (li *LocalIndex) Sort() {
	slices.SortFunc(li.Entries, func(a, b VarEntry) int { return compareEntries(&a, &b) })
}

// TotalBytes sums the data bytes the index covers.
func (li *LocalIndex) TotalBytes() int64 {
	var t int64
	for _, e := range li.Entries {
		t += e.Length
	}
	return t
}

// GlobalIndex merges the local indices of one output operation.
type GlobalIndex struct {
	// Step is the application output step this index describes.
	Step int64
	// Locals are the per-file indices, sorted by file name.
	Locals []LocalIndex
}

// Sort orders locals by file name and each local's entries canonically.
func (g *GlobalIndex) Sort() {
	slices.SortFunc(g.Locals, func(a, b LocalIndex) int { return strings.Compare(a.File, b.File) })
	for i := range g.Locals {
		g.Locals[i].Sort()
	}
}

// Location names one variable block: the file it is in plus its record.
type Location struct {
	File  string
	Entry VarEntry
}

// Lookup finds the block of a variable written by a specific rank. With
// rank < 0 it returns the first block of that variable.
func (g *GlobalIndex) Lookup(name string, rank int32) (Location, bool) {
	for _, li := range g.Locals {
		for _, e := range li.Entries {
			if e.Name == name && (rank < 0 || e.WriterRank == rank) {
				return Location{File: li.File, Entry: e}, true
			}
		}
	}
	return Location{}, false
}

// FindByValue returns all blocks of a variable whose [Min, Max]
// characteristics intersect [lo, hi] — the characteristics-based search the
// paper describes as the interim replacement for the global indexing phase.
func (g *GlobalIndex) FindByValue(name string, lo, hi float64) []Location {
	var out []Location
	for _, li := range g.Locals {
		for _, e := range li.Entries {
			if e.Name == name && e.Max >= lo && e.Min <= hi {
				out = append(out, Location{File: li.File, Entry: e})
			}
		}
	}
	return out
}

// Vars lists the distinct variable names in the index, sorted.
func (g *GlobalIndex) Vars() []string {
	set := map[string]struct{}{}
	for _, li := range g.Locals {
		for _, e := range li.Entries {
			set[e.Name] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// NumEntries counts variable records across all locals.
func (g *GlobalIndex) NumEntries() int {
	n := 0
	for _, li := range g.Locals {
		n += len(li.Entries)
	}
	return n
}

// --- encoding ---
//
// Encoding appends directly to a byte slice sized up front by the length
// formula below. The byte layout is identical to what the original
// encoding/binary.Write implementation produced (fixed-width
// little-endian); only the reflection and intermediate buffers are gone.
// Decoding keeps the reader-based form: it runs once per read-back and its
// error handling benefits from io.Reader framing.

// The length formula. Encode sizes its buffer from it, and the simulated
// transports charge their index writes by it without building an index.
// Lengths are not validated: a string longer than the format allows still
// has a length, and Encode refuses it when the bytes are produced.

// EntryLen is the encoded length of an entry whose variable name is name
// and whose block has dims dimensions.
func EntryLen(name string, dims int) int {
	return 4 + len(name) + 4 + 8 + 8 + 8 + 8 + 4 + 8*dims
}

// LocalLen is the encoded length of a local index for file that holds no
// entries; each entry adds its EntryLen.
func LocalLen(file string) int {
	return 4 + 2 + 4 + len(file) + 4
}

// GlobalLen is the encoded length of a global index of locals local
// indices, without the locals themselves: its header plus each local's
// length prefix. Each local adds its own encoded length.
func GlobalLen(locals int) int {
	return 4 + 2 + 8 + 4 + 8*locals
}

func appendString(b []byte, s string) ([]byte, error) {
	if len(s) > maxStringLen {
		return nil, fmt.Errorf("bp: string too long (%d)", len(s))
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...), nil
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("bp: corrupt string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func appendEntry(b []byte, e *VarEntry) ([]byte, error) {
	b, err := appendString(b, e.Name)
	if err != nil {
		return nil, err
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(e.WriterRank))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Offset))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.Length))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Min))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Max))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(e.Dims)))
	for _, d := range e.Dims {
		b = binary.LittleEndian.AppendUint64(b, d)
	}
	return b, nil
}

func readEntry(r io.Reader) (VarEntry, error) {
	var e VarEntry
	var err error
	if e.Name, err = readString(r); err != nil {
		return e, err
	}
	var nDims uint32
	for _, v := range []any{&e.WriterRank, &e.Offset, &e.Length, &e.Min, &e.Max, &nDims} {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return e, err
		}
	}
	if nDims > 16 {
		return e, fmt.Errorf("bp: corrupt dimension count %d", nDims)
	}
	if nDims > 0 {
		e.Dims = make([]uint64, nDims)
		if err := binary.Read(r, binary.LittleEndian, e.Dims); err != nil {
			return e, err
		}
	}
	return e, nil
}

// encodedSize is the exact byte length appendTo will produce.
func (li *LocalIndex) encodedSize() int {
	n := LocalLen(li.File)
	for i := range li.Entries {
		n += EntryLen(li.Entries[i].Name, len(li.Entries[i].Dims))
	}
	return n
}

// appendTo serialises the local index onto b.
func (li *LocalIndex) appendTo(b []byte) ([]byte, error) {
	b = binary.LittleEndian.AppendUint32(b, MagicLocal)
	b = binary.LittleEndian.AppendUint16(b, Version)
	b, err := appendString(b, li.File)
	if err != nil {
		return nil, err
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(li.Entries)))
	for i := range li.Entries {
		if b, err = appendEntry(b, &li.Entries[i]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Encode serialises the local index.
func (li *LocalIndex) Encode() ([]byte, error) {
	return li.appendTo(make([]byte, 0, li.encodedSize()))
}

// DecodeLocal parses a local index from data.
func DecodeLocal(data []byte) (*LocalIndex, error) {
	r := bytes.NewReader(data)
	var magic uint32
	var ver uint16
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, err
	}
	if magic != MagicLocal {
		return nil, fmt.Errorf("bp: bad local-index magic %#x", magic)
	}
	if err := binary.Read(r, binary.LittleEndian, &ver); err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, fmt.Errorf("bp: unsupported version %d", ver)
	}
	li := &LocalIndex{}
	var err error
	if li.File, err = readString(r); err != nil {
		return nil, err
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > maxEntries {
		return nil, fmt.Errorf("bp: corrupt entry count %d", n)
	}
	li.Entries = make([]VarEntry, 0, min(int(n), r.Len()/minEntrySize))
	for i := uint32(0); i < n; i++ {
		e, err := readEntry(r)
		if err != nil {
			return nil, err
		}
		li.Entries = append(li.Entries, e)
	}
	return li, nil
}

// Encode serialises the global index (sorting it canonically first).
func (g *GlobalIndex) Encode() ([]byte, error) {
	g.Sort()
	size := GlobalLen(len(g.Locals))
	for i := range g.Locals {
		size += g.Locals[i].encodedSize()
	}
	b := make([]byte, 0, size)
	b = binary.LittleEndian.AppendUint32(b, MagicGlobal)
	b = binary.LittleEndian.AppendUint16(b, Version)
	b = binary.LittleEndian.AppendUint64(b, uint64(g.Step))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(g.Locals)))
	for i := range g.Locals {
		li := &g.Locals[i]
		b = binary.LittleEndian.AppendUint64(b, uint64(li.encodedSize()))
		var err error
		if b, err = li.appendTo(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// DecodeGlobal parses a global index from data.
func DecodeGlobal(data []byte) (*GlobalIndex, error) {
	r := bytes.NewReader(data)
	var magic uint32
	var ver uint16
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, err
	}
	if magic != MagicGlobal {
		return nil, fmt.Errorf("bp: bad global-index magic %#x", magic)
	}
	if err := binary.Read(r, binary.LittleEndian, &ver); err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, fmt.Errorf("bp: unsupported version %d", ver)
	}
	g := &GlobalIndex{}
	if err := binary.Read(r, binary.LittleEndian, &g.Step); err != nil {
		return nil, err
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > maxEntries {
		return nil, fmt.Errorf("bp: corrupt locals count %d", n)
	}
	g.Locals = make([]LocalIndex, 0, min(int(n), r.Len()/minLocalSize))
	for i := uint32(0); i < n; i++ {
		var sz uint64
		if err := binary.Read(r, binary.LittleEndian, &sz); err != nil {
			return nil, err
		}
		if sz > uint64(r.Len()) {
			return nil, fmt.Errorf("bp: corrupt local size %d", sz)
		}
		buf := make([]byte, sz)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		li, err := DecodeLocal(buf)
		if err != nil {
			return nil, err
		}
		g.Locals = append(g.Locals, *li)
	}
	return g, nil
}
