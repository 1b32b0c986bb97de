package iomethod

import (
	"slices"

	"repro/internal/bp"
)

// Block is one rank's block as the index log records it: which of the
// step's files it landed in, at what offset, and the variables it holds,
// laid out contiguously from that offset.
type Block struct {
	file   int32
	rank   int32
	offset int64
	data   RankData
}

// indexLog is a step's index as its transport records it: the blocks whose
// data landed and a running encoded length per file, from which the commit
// ops are charged. The global index itself is built only when read.
type indexLog struct {
	step   int64
	files  []string // by the transport's file number
	lens   []int64  // per file: its local index's encoded length, 0 until created
	blocks []Block
	built  *bp.GlobalIndex // the index read last, nil once the log grows
}

// AddFile records that file f was created: its local index exists, with no
// entries yet.
func (r *StepResult) AddFile(f int) {
	r.index.lens[f] = int64(bp.LocalLen(r.index.files[f]))
	r.index.built = nil
}

// AddBlock records that rank's block data landed in file f at offset. It
// adds the length the block's shape stored when it was built, so its cost
// does not depend on the number of variables.
//
//repro:hotpath
func (r *StepResult) AddBlock(f, rank int, offset int64, data RankData) {
	l := &r.index
	l.blocks = append(l.blocks, Block{file: int32(f), rank: int32(rank), offset: offset, data: data})
	if data.shape != nil {
		l.lens[f] += data.shape.indexLen
	}
	l.built = nil
}

// LocalIndexLen is the encoded length of file f's local index holding the
// blocks logged so far: what writing it costs.
func (r *StepResult) LocalIndexLen(f int) int64 { return r.index.lens[f] }

// GlobalIndexLen is the encoded length of the global index of the blocks
// logged so far.
func (r *StepResult) GlobalIndexLen() int64 {
	n, locals := int64(0), 0
	for _, l := range r.index.lens {
		if l > 0 {
			n += l
			locals++
		}
	}
	return n + int64(bp.GlobalLen(locals))
}

// Index returns the step's global index: one local per data file the step
// created, holding an entry for each variable of every block whose data
// write succeeded, sorted canonically. The first call builds and sorts it
// from the step's log; later calls return the same index until another
// file or block is logged. It is nil for a step that created no file. Read it once the
// step has completed (for staging, once it has drained) and before the
// owning cluster's next Reset: the log lives in the transport's step state.
// Each block's characteristics are evaluated only when the index is built,
// from its shape's centre function.
func (r *StepResult) Index() *bp.GlobalIndex { return r.index.build() }

// build returns the global index of the logged blocks, building and sorting
// it if the log has grown since the last build.
func (l *indexLog) build() *bp.GlobalIndex {
	if l.built != nil {
		return l.built
	}
	// local[f] is created file f's place among the locals; blocks land only
	// in created files.
	local := make([]int, len(l.files))
	g := &bp.GlobalIndex{Step: l.step}
	for f, n := range l.lens {
		if n > 0 {
			local[f] = len(g.Locals)
			g.Locals = append(g.Locals, bp.LocalIndex{File: l.files[f]})
		}
	}
	if len(g.Locals) == 0 {
		return nil
	}
	for i := range l.blocks {
		b := &l.blocks[i]
		li := &g.Locals[local[b.file]]
		off := b.offset
		for i := range b.data.NumVars() {
			v := b.data.Var(i)
			li.Entries = append(li.Entries, bp.VarEntry{
				Name: v.Name, WriterRank: b.rank, Offset: off, Length: v.Bytes,
				Dims: slices.Clone(v.Dims), Min: v.Min, Max: v.Max,
			})
			off += v.Bytes
		}
	}
	g.Sort()
	l.built = g
	return g
}
