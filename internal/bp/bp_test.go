package bp

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleLocal() LocalIndex {
	return LocalIndex{
		File: "pixie3d.0003.bp",
		Entries: []VarEntry{
			{Name: "rho", WriterRank: 2, Offset: 0, Length: 1024, Dims: []uint64{8, 8, 16}, Min: -1.5, Max: 2.25},
			{Name: "B_x", WriterRank: 0, Offset: 1024, Length: 2048, Dims: []uint64{16, 16, 8}, Min: 0, Max: 9.75},
			{Name: "rho", WriterRank: 0, Offset: 3072, Length: 1024, Min: -3, Max: -0.5},
		},
	}
}

func TestLocalRoundTrip(t *testing.T) {
	li := sampleLocal()
	enc, err := li.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLocal(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, li) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", *got, li)
	}
}

func TestLocalSortCanonicalOrder(t *testing.T) {
	li := sampleLocal()
	li.Sort()
	names := make([]string, len(li.Entries))
	for i, e := range li.Entries {
		names[i] = e.Name
	}
	if !reflect.DeepEqual(names, []string{"B_x", "rho", "rho"}) {
		t.Fatalf("sorted names = %v", names)
	}
	if li.Entries[1].WriterRank != 0 || li.Entries[2].WriterRank != 2 {
		t.Fatal("rho entries not ordered by rank")
	}
}

func TestTotalBytes(t *testing.T) {
	li := sampleLocal()
	if got := li.TotalBytes(); got != 4096 {
		t.Fatalf("total bytes = %d", got)
	}
}

func TestGlobalRoundTripAndSort(t *testing.T) {
	g := GlobalIndex{
		Step: 7,
		Locals: []LocalIndex{
			{File: "out.2.bp", Entries: []VarEntry{{Name: "v", WriterRank: 3, Length: 10}}},
			sampleLocal(),
		},
	}
	enc, err := g.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeGlobal(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 7 || len(got.Locals) != 2 {
		t.Fatalf("global header wrong: %+v", got)
	}
	// Encode sorts by file name.
	if got.Locals[0].File != "out.2.bp" || got.Locals[1].File != "pixie3d.0003.bp" {
		t.Fatalf("locals order: %s, %s", got.Locals[0].File, got.Locals[1].File)
	}
	if got.NumEntries() != 4 {
		t.Fatalf("entries = %d", got.NumEntries())
	}
}

func TestLookup(t *testing.T) {
	g := GlobalIndex{Locals: []LocalIndex{sampleLocal()}}
	loc, ok := g.Lookup("rho", 2)
	if !ok || loc.File != "pixie3d.0003.bp" || loc.Entry.Offset != 0 {
		t.Fatalf("lookup = %+v, %v", loc, ok)
	}
	if _, ok := g.Lookup("rho", 99); ok {
		t.Fatal("lookup of absent rank should fail")
	}
	if _, ok := g.Lookup("ghost", -1); ok {
		t.Fatal("lookup of absent variable should fail")
	}
	loc, ok = g.Lookup("rho", -1)
	if !ok {
		t.Fatal("wildcard rank lookup failed")
	}
}

func TestFindByValueCharacteristics(t *testing.T) {
	g := GlobalIndex{Locals: []LocalIndex{sampleLocal()}}
	// rho blocks: [-1.5, 2.25] (rank 2) and [-3, -0.5] (rank 0).
	hits := g.FindByValue("rho", 0, 10)
	if len(hits) != 1 || hits[0].Entry.WriterRank != 2 {
		t.Fatalf("value search [0,10] = %+v", hits)
	}
	hits = g.FindByValue("rho", -2, -1)
	if len(hits) != 2 {
		t.Fatalf("value search [-2,-1] hits = %d, want 2 (both ranges intersect)", len(hits))
	}
	if hits := g.FindByValue("rho", 100, 200); hits != nil {
		t.Fatalf("out-of-range search = %+v", hits)
	}
}

func TestVars(t *testing.T) {
	g := GlobalIndex{Locals: []LocalIndex{sampleLocal()}}
	if got := g.Vars(); !reflect.DeepEqual(got, []string{"B_x", "rho"}) {
		t.Fatalf("vars = %v", got)
	}
}

func TestDecodeRejectsCorruptMagic(t *testing.T) {
	li := sampleLocal()
	enc, _ := li.Encode()
	enc[0] ^= 0xFF
	if _, err := DecodeLocal(enc); err == nil {
		t.Fatal("corrupt magic accepted")
	}
	g := GlobalIndex{Locals: []LocalIndex{li}}
	genc, _ := g.Encode()
	genc[0] ^= 0xFF
	if _, err := DecodeGlobal(genc); err == nil {
		t.Fatal("corrupt global magic accepted")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	li := sampleLocal()
	enc, _ := li.Encode()
	for _, cut := range []int{1, 5, 7, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeLocal(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	li := sampleLocal()
	enc, _ := li.Encode()
	enc[4] = 0xFF // version low byte
	if _, err := DecodeLocal(enc); err == nil {
		t.Fatal("wrong version accepted")
	}
}

func TestDecodeLocalAsGlobalFails(t *testing.T) {
	li := sampleLocal()
	enc, _ := li.Encode()
	if _, err := DecodeGlobal(enc); err == nil {
		t.Fatal("local bytes decoded as global")
	}
}

func TestEncodedSizePositive(t *testing.T) {
	e := sampleLocal().Entries[0]
	if n := EntryLen(e.Name, len(e.Dims)); n < 40 {
		t.Fatalf("encoded size = %d suspiciously small", n)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(file string, names []string, ranks []int32, vals []float64) bool {
		if len(file) > 1000 {
			file = file[:1000]
		}
		li := LocalIndex{File: file}
		for i, n := range names {
			if len(n) > 200 {
				n = n[:200]
			}
			e := VarEntry{Name: n}
			if i < len(ranks) {
				e.WriterRank = ranks[i]
			}
			if i < len(vals) && !math.IsNaN(vals[i]) {
				e.Min = vals[i]
				e.Max = vals[i] + 1
			}
			e.Offset = int64(i * 100)
			e.Length = int64(i * 10)
			e.Dims = []uint64{uint64(i), uint64(i * 2)}
			li.Entries = append(li.Entries, e)
		}
		enc, err := li.Encode()
		if err != nil {
			return false
		}
		got, err := DecodeLocal(enc)
		if err != nil {
			return false
		}
		if got.File != li.File || len(got.Entries) != len(li.Entries) {
			return false
		}
		for i := range li.Entries {
			a, b := li.Entries[i], got.Entries[i]
			if a.Name != b.Name || a.WriterRank != b.WriterRank ||
				a.Offset != b.Offset || a.Length != b.Length ||
				a.Min != b.Min || a.Max != b.Max ||
				!reflect.DeepEqual(a.Dims, b.Dims) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// referenceSort is the straightforward stable sort Sort must be equivalent
// to.
func referenceSort(es []VarEntry) []VarEntry {
	out := make([]VarEntry, len(es))
	copy(out, es)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && compareEntries(&out[j], &out[j-1]) < 0; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestSortMatchesReference(t *testing.T) {
	entry := func(name string, rank int32, off int64) VarEntry {
		return VarEntry{Name: name, WriterRank: rank, Offset: off, Length: 8}
	}
	manyNames := make([]VarEntry, 0, 40) // 20 names, each in descending rank order
	for i := 0; i < 20; i++ {
		manyNames = append(manyNames,
			entry(string(rune('a'+19-i)), 1, int64(i)),
			entry(string(rune('a'+19-i)), 0, int64(i)))
	}
	cases := []struct {
		name string
		es   []VarEntry
	}{
		{"empty", nil},
		{"single", []VarEntry{entry("x", 0, 0)}},
		{"sorted", []VarEntry{entry("a", 0, 0), entry("a", 1, 0), entry("b", 0, 0)}},
		{"reverse", []VarEntry{entry("b", 0, 0), entry("a", 1, 0), entry("a", 0, 0)}},
		// The leader-merge shape: per-name runs already (rank, offset)
		// ordered, names interleaved out of order.
		{"merge", []VarEntry{
			entry("rho", 0, 0), entry("rho", 1, 64), entry("B_x", 0, 0),
			entry("B_x", 2, 32), entry("psi", 1, 0), entry("rho", 3, 0),
		}},
		// Disorder within one name.
		{"rankDisorder", []VarEntry{entry("a", 2, 0), entry("a", 1, 0), entry("a", 3, 0)}},
		{"offsetDisorder", []VarEntry{entry("a", 1, 64), entry("a", 1, 0)}},
		{"manyNames", manyNames},
	}
	for _, tc := range cases {
		name, es := tc.name, tc.es
		want := referenceSort(es)
		li := LocalIndex{Entries: append([]VarEntry(nil), es...)}
		li.Sort()
		if len(li.Entries) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(li.Entries, want) {
			t.Errorf("%s: Sort mismatch\n got %+v\nwant %+v", name, li.Entries, want)
		}
	}
}

func TestSortMatchesReferenceQuick(t *testing.T) {
	names := []string{"a", "b", "c", "rho"}
	f := func(picks []uint8) bool {
		es := make([]VarEntry, len(picks))
		for i, p := range picks {
			es[i] = VarEntry{
				Name:       names[int(p)%len(names)],
				WriterRank: int32(p>>2) % 5,
				Offset:     int64(p>>4) % 3,
				Length:     4,
			}
		}
		want := referenceSort(es)
		li := LocalIndex{Entries: es}
		li.Sort()
		if len(es) == 0 {
			return true
		}
		return reflect.DeepEqual(li.Entries, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSortSortedAllocatesNothing pins that sorting costs no allocation: a
// global index whose locals are already in canonical order sorts them again
// in place, without a buffer.
func TestSortSortedAllocatesNothing(t *testing.T) {
	li := LocalIndex{File: "out.bp"}
	for _, name := range []string{"B_x", "phi", "rho"} {
		for r := int32(0); r < 64; r++ {
			li.Entries = append(li.Entries, VarEntry{Name: name, WriterRank: r, Offset: int64(r) * 64, Length: 64})
		}
	}
	g := GlobalIndex{Locals: []LocalIndex{li, {File: "a.bp", Entries: li.Entries}}}
	if got := testing.AllocsPerRun(100, g.Sort); got != 0 {
		t.Fatalf("sorting sorted locals allocates %v times; want 0", got)
	}
	if !reflect.DeepEqual(g.Locals[1].Entries, referenceSort(li.Entries)) {
		t.Fatal("sorted input changed")
	}
}
