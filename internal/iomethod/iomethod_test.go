package iomethod

import (
	"cmp"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bp"
)

func TestRankDataTotalBytes(t *testing.T) {
	d := RankData{Vars: []VarSpec{{Bytes: 100}, {Bytes: 250}, {Bytes: 0}}}
	if d.TotalBytes() != 350 {
		t.Fatalf("total = %d", d.TotalBytes())
	}
	if (RankData{}).TotalBytes() != 0 {
		t.Fatal("empty total")
	}
}

func TestIndexLogLayout(t *testing.T) {
	d := RankData{Vars: []VarSpec{
		{Name: "a", Bytes: 100, Dims: []uint64{10, 10}, Min: -1, Max: 1},
		{Name: "b", Bytes: 50, Min: 2, Max: 3},
	}}
	r := &StepResult{}
	r.index = indexLog{step: 3, files: []string{"out.bp"}, lens: make([]int64, 1)}
	r.AddFile(0)
	r.AddBlock(0, 7, 1000, d)
	g := r.Index()
	if g == nil || g.Step != 3 || len(g.Locals) != 1 || g.Locals[0].File != "out.bp" {
		t.Fatalf("index = %+v", g)
	}
	entries := g.Locals[0].Entries
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
	if entries[0].Offset != 1000 || entries[0].Length != 100 || entries[0].WriterRank != 7 {
		t.Fatalf("entry 0 = %+v", entries[0])
	}
	if entries[1].Offset != 1100 || entries[1].Length != 50 || entries[1].WriterRank != 7 {
		t.Fatalf("entry 1 = %+v", entries[1])
	}
	if !reflect.DeepEqual(entries[0].Dims, []uint64{10, 10}) || entries[0].Min != -1 || entries[1].Max != 3 {
		t.Fatal("dims or characteristics not carried")
	}
	// Dims must be copied, not aliased.
	d.Vars[0].Dims[0] = 99
	if entries[0].Dims[0] == 99 {
		t.Fatal("dims aliased to input")
	}
	if r.Index() != g {
		t.Fatal("second read rebuilt the index")
	}
}

func TestIndexLogContiguousProperty(t *testing.T) {
	f := func(sizes []uint16, off uint32) bool {
		d := RankData{}
		for i, s := range sizes {
			d.Vars = append(d.Vars, VarSpec{Name: string(rune('a' + i%26)), Bytes: int64(s)})
		}
		r := &StepResult{}
		r.index = indexLog{step: 0, files: []string{"f"}, lens: make([]int64, 1)}
		r.AddFile(0)
		r.AddBlock(0, 0, int64(off), d)
		es := slices.Clone(r.Index().Locals[0].Entries)
		slices.SortFunc(es, func(a, b bp.VarEntry) int { return cmp.Compare(a.Offset, b.Offset) })
		cur := int64(off)
		for _, e := range es {
			if e.Offset != cur {
				return false
			}
			cur += e.Length
		}
		return cur == int64(off)+d.TotalBytes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestIndexLogMembership pins which files and blocks the index holds: a
// local for every created file, under its own name and whether or not a
// block landed in it, none for a file never created, and only the blocks
// logged.
func TestIndexLogMembership(t *testing.T) {
	d := RankData{Vars: []VarSpec{{Name: "v", Bytes: 8}}}
	r := &StepResult{}
	if r.Index() != nil {
		t.Fatal("a step with no log has an index")
	}
	r.index = indexLog{step: 0, files: []string{"a.bp", "b.bp", "c.bp"}, lens: make([]int64, 3)}
	if r.Index() != nil {
		t.Fatal("a step that created no file has an index")
	}
	r.AddFile(2)
	r.AddFile(0)
	r.AddBlock(2, 5, 0, d)
	g := r.Index()
	if len(g.Locals) != 2 || g.Locals[0].File != "a.bp" || g.Locals[1].File != "c.bp" {
		t.Fatalf("locals = %+v", g.Locals)
	}
	if len(g.Locals[0].Entries) != 0 || len(g.Locals[1].Entries) != 1 || g.Locals[1].Entries[0].WriterRank != 5 {
		t.Fatalf("entries = %+v", g.Locals)
	}
	r.AddBlock(0, 6, 0, d)
	if g2 := r.Index(); g2 == g || g2.NumEntries() != 2 {
		t.Fatal("a block landing after a read is missing from the next read")
	}
}

// FuzzIndexLen checks the log's arithmetic against the bytes: each file's
// LocalIndexLen and the GlobalIndexLen equal the lengths Encode produces
// for the index built from the same blocks. The step has four files, of
// which three are created. Each input byte triple is one rank's block: the
// created file it lands in, its first variable's size, and that variable's
// name length and dims count; a second, fixed variable follows.
func FuzzIndexLen(f *testing.F) {
	f.Add([]byte{0, 0, 3, 1, 1, 17, 2, 2, 0})
	f.Add([]byte{0, 1, 0xff, 0, 2, 0x40, 2, 3, 7, 1, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		files := []string{"s.g0000.bp", "s.part01.bp", "", "never.bp"}
		r := &StepResult{}
		r.index = indexLog{step: 1, files: files, lens: make([]int64, len(files))}
		for f := range 3 {
			r.AddFile(f)
		}
		for i, b := 0, data; len(b) >= 3; i, b = i+1, b[3:] {
			v := VarSpec{
				Name:  strings.Repeat("x", int(b[2]&0x3f)),
				Bytes: int64(b[1]) + 1,
				Dims:  make([]uint64, b[2]>>6),
			}
			r.AddBlock(int(b[0]%3), i, int64(i)<<10, RankData{Vars: []VarSpec{v, {Name: "q", Bytes: 4}}})
		}
		g := r.Index()
		enc, err := g.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if got := r.GlobalIndexLen(); got != int64(len(enc)) {
			t.Fatalf("global index: log length %d, encoded %d bytes", got, len(enc))
		}
		for f := range 3 {
			li := g.Locals[slices.IndexFunc(g.Locals, func(li bp.LocalIndex) bool { return li.File == files[f] })]
			enc, err := li.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if got := r.LocalIndexLen(f); got != int64(len(enc)) {
				t.Fatalf("file %d: log length %d, encoded %d bytes", f, got, len(enc))
			}
		}
		if r.LocalIndexLen(3) != 0 || len(g.Locals) != 3 {
			t.Fatal("a file never created has a local index")
		}
	})
}

func TestStepResultAggregateBW(t *testing.T) {
	r := StepResult{TotalBytes: 1000, Elapsed: 4}
	if r.AggregateBW() != 250 {
		t.Fatalf("bw = %v", r.AggregateBW())
	}
	if (&StepResult{TotalBytes: 5}).AggregateBW() != 0 {
		t.Fatal("zero elapsed should yield zero bandwidth")
	}
}
