package bp

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// corruptLocal is a 14-byte local index whose header claims maxEntries
// entries and then ends; corruptGlobal is the 18-byte global index that
// claims maxEntries locals the same way.
func corruptLocal() []byte {
	b := binary.LittleEndian.AppendUint32(nil, MagicLocal)
	b = binary.LittleEndian.AppendUint16(b, Version)
	b = binary.LittleEndian.AppendUint32(b, 0) // empty file name
	return binary.LittleEndian.AppendUint32(b, maxEntries)
}

func corruptGlobal() []byte {
	b := binary.LittleEndian.AppendUint32(nil, MagicGlobal)
	b = binary.LittleEndian.AppendUint16(b, Version)
	b = binary.LittleEndian.AppendUint64(b, 0) // step
	return binary.LittleEndian.AppendUint32(b, maxEntries)
}

// TestDecodeBoundsAllocation pins that a corrupt count cannot make the
// decoders allocate far beyond their input: both truncated headers fail
// with under 1 MB allocated.
func TestDecodeBoundsAllocation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		data   []byte
		decode func([]byte) error
	}{
		{"local", corruptLocal(), func(b []byte) error { _, err := DecodeLocal(b); return err }},
		{"global", corruptGlobal(), func(b []byte) error { _, err := DecodeGlobal(b); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.decode(tc.data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: %d-byte index claiming %d records decoded", tc.name, len(tc.data), maxEntries)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: decoding %d bytes allocated %d bytes", tc.name, len(tc.data), got)
		}
	}
}

// equalLocal compares two local indices field by field, floats by their
// bits so NaN characteristics compare equal to themselves.
func equalLocal(a, b *LocalIndex) bool {
	if a.File != b.File || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		x, y := &a.Entries[i], &b.Entries[i]
		if x.Name != y.Name || x.WriterRank != y.WriterRank || x.Offset != y.Offset || x.Length != y.Length ||
			math.Float64bits(x.Min) != math.Float64bits(y.Min) ||
			math.Float64bits(x.Max) != math.Float64bits(y.Max) ||
			len(x.Dims) != len(y.Dims) {
			return false
		}
		for j := range x.Dims {
			if x.Dims[j] != y.Dims[j] {
				return false
			}
		}
	}
	return true
}

// FuzzDecodeLocal: DecodeLocal never panics, and a local index that
// decodes re-encodes and decodes back to an equal value.
func FuzzDecodeLocal(f *testing.F) {
	li := sampleLocal()
	enc, err := li.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	nan := LocalIndex{File: "nan.bp", Entries: []VarEntry{{Name: "q", Min: math.NaN(), Max: math.Inf(1)}}}
	if enc, err = nan.Encode(); err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add(corruptLocal())
	f.Fuzz(func(t *testing.T, data []byte) {
		li, err := DecodeLocal(data)
		if err != nil {
			return
		}
		enc, err := li.Encode()
		if err != nil {
			t.Fatalf("decoded index does not re-encode: %v", err)
		}
		back, err := DecodeLocal(enc)
		if err != nil {
			t.Fatalf("re-encoded index does not decode: %v", err)
		}
		if !equalLocal(li, back) {
			t.Fatalf("round trip changed the index:\n got %+v\nwant %+v", back, li)
		}
	})
}

// FuzzDecodeGlobal: DecodeGlobal never panics.
func FuzzDecodeGlobal(f *testing.F) {
	g := GlobalIndex{Step: 3, Locals: []LocalIndex{sampleLocal(), {File: "empty.bp"}}}
	enc, err := g.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add(corruptGlobal())
	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeGlobal(data)
	})
}

// fuzzEntries decodes a fuzz input into index entries: the first byte sets
// the name alphabet (1–20 names) and each following byte triple is one
// entry's (name, rank, offset). A repeated key is dropped, since no index
// holds two records with the same (Name, WriterRank, Offset).
func fuzzEntries(data []byte) []VarEntry {
	if len(data) == 0 {
		return nil
	}
	names := 1 + int(data[0])%20
	type key struct {
		name   byte
		rank   int32
		offset int64
	}
	seen := map[key]bool{}
	var es []VarEntry
	for b := data[1:]; len(b) >= 3; b = b[3:] {
		k := key{b[0] % byte(names), int32(b[1] % 16), int64(b[2] % 8)}
		if seen[k] {
			continue
		}
		seen[k] = true
		es = append(es, VarEntry{
			Name:       string(rune('a' + k.name)),
			WriterRank: k.rank,
			Offset:     k.offset,
			Length:     int64(len(es)),
		})
	}
	return es
}

// FuzzLocalIndexSort checks Sort against referenceSort on any entry set.
func FuzzLocalIndexSort(f *testing.F) {
	// Already sorted.
	f.Add([]byte{3, 0, 0, 0, 0, 1, 0, 1, 0, 0, 2, 0, 0})
	// Rank-ordered, the leader-merge shape: each writer's variables in
	// declaration order, writers ascending, for 4 and for 18 names.
	for _, names := range []byte{4, 18} {
		in := []byte{names - 1}
		for r := byte(0); r < 6; r++ {
			for v := byte(0); v < names; v++ {
				in = append(in, names-1-v, r, v%8)
			}
		}
		f.Add(in)
	}
	f.Add([]byte{19, 5, 2, 1, 5, 1, 1, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		es := fuzzEntries(data)
		want := referenceSort(es)
		li := LocalIndex{Entries: es}
		li.Sort()
		for i := range want {
			if li.Entries[i].Name != want[i].Name || li.Entries[i].WriterRank != want[i].WriterRank ||
				li.Entries[i].Offset != want[i].Offset || li.Entries[i].Length != want[i].Length {
				t.Fatalf("entry %d: got %+v, want %+v", i, li.Entries[i], want[i])
			}
		}
	})
}
