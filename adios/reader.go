package adios

import (
	"fmt"
	"sort"

	"repro/cluster"
	"repro/internal/bp"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// Reader reads a completed output step back through its global index — the
// restart-read path. Section IV-C of the paper argues that the adaptive
// method's extra files do not hurt the consumer: "access to any data can be
// performed using a single lookup into the index and then a direct read of
// the value(s) from the appropriate data file(s), sometimes resulting in
// improved performance" — because the subfiles spread restart reads across
// many storage targets instead of funneling them through one shared file's
// stripe set.
type Reader struct {
	c   *cluster.Cluster
	idx *bp.GlobalIndex

	// open file handles, one per data file touched, reused across reads
	// (the open cost is paid once per file per reader).
	handles map[string]*pfs.File
}

// NewReader builds a reader over a step's global index.
func NewReader(c *cluster.Cluster, idx *bp.GlobalIndex) (*Reader, error) {
	if idx == nil {
		return nil, fmt.Errorf("adios: nil index")
	}
	return &Reader{c: c, idx: idx, handles: map[string]*pfs.File{}}, nil
}

// Index returns the underlying global index.
func (rd *Reader) Index() *bp.GlobalIndex { return rd.idx }

// ReadCont reads a list of located blocks in flight: for each location in
// order, the data file is opened once per reader (handles are reused
// across reads), then the block is read. The zero value is ready and
// completes at once; arm it with one of the Reader's read methods, drive it
// with Step until true, then read Result. One ReadCont may be reused across
// sequential reads.
type ReadCont struct {
	rd    *Reader
	locs  []bp.Location
	i     int
	pc    int
	open  pfs.OpenOp
	read  pfs.ReadOp
	total int64
	err   error
}

// arm points rc at a fresh list of locations.
func (rc *ReadCont) arm(rd *Reader, locs []bp.Location) {
	rc.rd = rd
	rc.locs = locs
	rc.i = 0
	rc.pc = 0
	rc.total = 0
	rc.err = nil
}

// Step drives the reads; see simkernel.Cont. The calling process spends
// the simulated IO time. A failed open ends the list with its error; a
// read against a dead target costs its timeout but is not reported.
func (rc *ReadCont) Step(c *simkernel.ContProc) bool {
	for rc.i < len(rc.locs) {
		loc := rc.locs[rc.i]
		switch rc.pc {
		case 0:
			if f, ok := rc.rd.handles[loc.File]; ok {
				rc.read.BeginRead(f, loc.Entry.Offset, loc.Entry.Length)
				rc.pc = 2
				continue
			}
			rc.open.BeginOpen(rc.rd.c.FileSystem(), loc.File)
			rc.pc = 1
		case 1:
			if !rc.open.Step(c) {
				return false
			}
			if err := rc.open.Err(); err != nil {
				rc.err = err
				return true
			}
			rc.rd.handles[loc.File] = rc.open.File()
			rc.read.BeginRead(rc.open.File(), loc.Entry.Offset, loc.Entry.Length)
			rc.pc = 2
		default:
			if !rc.read.Step(c) {
				return false
			}
			rc.total += loc.Entry.Length
			rc.pc = 0
			rc.i++
		}
	}
	return true
}

// Result returns the bytes read and the open error, if any; valid once
// Step has returned true.
func (rc *ReadCont) Result() (int64, error) { return rc.total, rc.err }

// ReadBlock arms rc to read one located block (a single index lookup has
// already produced loc).
func (rd *Reader) ReadBlock(rc *ReadCont, loc bp.Location) {
	rc.arm(rd, []bp.Location{loc})
}

// ReadVar looks a variable block up by (name, writer rank) and arms rc to
// read it. rank < 0 reads the first block of that variable. A lookup miss
// returns its error before any simulated IO and leaves rc with nothing to
// read.
func (rd *Reader) ReadVar(rc *ReadCont, name string, rank int32) (bp.Location, error) {
	loc, ok := rd.idx.Lookup(name, rank)
	if !ok {
		rc.arm(rd, nil)
		return bp.Location{}, fmt.Errorf("adios: no block for %s/rank %d", name, rank)
	}
	rd.ReadBlock(rc, loc)
	return loc, nil
}

// RestartRead arms rc to read every block the given rank wrote in the
// original step — the paper's "restart-style read of all of the data",
// performed by each rank for its own state. A rank with no blocks is an
// error, returned before any simulated IO.
func (rd *Reader) RestartRead(rc *ReadCont, rank int) error {
	var locs []bp.Location
	for _, li := range rd.idx.Locals {
		for _, e := range li.Entries {
			if e.WriterRank == int32(rank) {
				locs = append(locs, bp.Location{File: li.File, Entry: e})
			}
		}
	}
	rc.arm(rd, locs)
	if len(locs) == 0 {
		return fmt.Errorf("adios: rank %d has no blocks in this step", rank)
	}
	return nil
}

// ReadByValue arms rc for the paper's characteristics-based search-and-read:
// every block of the variable whose [Min, Max] range intersects [lo, hi] is
// read. It returns the blocks found; Result reports the bytes read.
func (rd *Reader) ReadByValue(rc *ReadCont, name string, lo, hi float64) []bp.Location {
	locs := rd.idx.FindByValue(name, lo, hi)
	rc.arm(rd, locs)
	return locs
}

// ReaderCloseCont closes a reader's file handles in flight. The zero value is
// ready; arm it with Reader.Close and drive it with Step until true.
type ReaderCloseCont struct {
	files   []*pfs.File
	i       int
	started bool
	op      pfs.CloseOp
}

// Close arms cc to close every handle the reader holds; the metadata cost
// is charged to the process driving cc. Each close charges an MDS
// operation, so the order of the closes is simulation-visible: cc closes
// the handles in sorted name order. The reader gives up its handles at
// once, so a reader closed again (by another rank, or before cc has run)
// has nothing left to close.
func (rd *Reader) Close(cc *ReaderCloseCont) {
	names := make([]string, 0, len(rd.handles))
	for name := range rd.handles {
		names = append(names, name)
	}
	sort.Strings(names)
	cc.files = cc.files[:0]
	for _, name := range names {
		cc.files = append(cc.files, rd.handles[name])
	}
	rd.handles = map[string]*pfs.File{}
	cc.i = 0
	cc.started = false
}

// Step drives the closes; see simkernel.Cont.
func (cc *ReaderCloseCont) Step(c *simkernel.ContProc) bool {
	for cc.i < len(cc.files) {
		if !cc.started {
			cc.op.BeginClose(cc.files[cc.i])
			cc.started = true
		}
		if !cc.op.Step(c) {
			return false
		}
		cc.started = false
		cc.i++
	}
	return true
}
