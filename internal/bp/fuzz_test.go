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
