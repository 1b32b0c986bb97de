package main

import (
	"bytes"
	"encoding/binary"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/profiling"
)

var sink int

//go:noinline
func busyLoop(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x += i * i % 7
	}
	return x
}

// TestParseRealCPUProfile decodes a profile the runtime wrote while this
// test spun, and checks that the spinning function is found and that the
// layer split accounts for every nanosecond.
func TestParseRealCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for sw := profiling.StartStopwatch(); sw.Elapsed() < 300*time.Millisecond; {
		sink += busyLoop(1 << 20)
	}
	pprof.StopCPUProfile()

	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := false
	for _, s := range samples {
		total += s.CPU
		if s.Count <= 0 || s.CPU <= 0 || len(s.Frames) == 0 {
			t.Errorf("implausible sample %+v", s)
		}
		found = found || slices.ContainsFunc(s.Frames, func(f string) bool { return strings.HasSuffix(f, ".busyLoop") })
	}
	if !found {
		t.Fatalf("no sample has busyLoop on its stack (%d samples)", len(samples))
	}

	att := attribute(samples)
	if att.TotalNS != total {
		t.Errorf("TotalNS = %d, samples carry %d", att.TotalNS, total)
	}
	if len(att.SelfNS) != len(layers) {
		t.Errorf("SelfNS has %d layers, want %d", len(att.SelfNS), len(layers))
	}
	var sum int64
	for _, l := range layers {
		sum += att.SelfNS[l]
	}
	if sum != att.TotalNS {
		t.Errorf("self CPU sums to %d ns, profile total is %d ns", sum, att.TotalNS)
	}
}

// TestAttribute charges synthetic stacks, encoded as real profiles, to
// layers and entry points. Each stack lists locations leaf first; each
// location lists its functions innermost first, so a location with several
// functions is a call the compiler inlined.
func TestAttribute(t *testing.T) {
	const (
		recompute = "repro/internal/pfs.(*OST).recompute"
		flushStep = "repro/internal/pfs.(*FlushOp).Step"
		fileFlush = "repro/internal/pfs.(*File).Flush"
		rent      = "repro/cluster.(*Pool).Rent"
		reseed    = "repro/internal/rngx.(*Source).Reseed"
		run       = "repro/internal/scenario.Run"
	)
	cases := []struct {
		name    string
		stack   [][]string
		layer   string
		entries []string
	}{
		{"leaf in a layer", [][]string{{recompute}, {run}}, "pfs", nil},
		{"inlined frame charged to the innermost function", [][]string{{reseed, rent}, {run}}, "rngx",
			[]string{"campaign.rent_cpu_s", "rngx.reseed_cpu_s"}},
		{"runtime leaf charged to its repro caller", [][]string{{"runtime.mallocgc"}, {"runtime.newobject"}, {recompute}}, "pfs", nil},
		{"no repro frame goes to runtime", [][]string{{"runtime.scanobject"}, {"runtime.gcBgMarkWorker"}, {"runtime.goexit"}}, "runtime", nil},
		{"closure", [][]string{{"repro/internal/simkernel.(*Kernel).RunUntil.func1"}, {run}}, "simkernel", nil},
		{"generic type with a repro type argument", [][]string{{"repro/internal/simkernel.(*Ring[go.shape.*repro/internal/pfs.waiter]).Push"}, {recompute}}, "simkernel", nil},
		{"generic stdlib helper charged to its caller", [][]string{{"slices.SortFunc[go.shape.[]repro/internal/core.flow,go.shape.struct {}]"}, {fileFlush}}, "pfs",
			[]string{"pfs.flush_cpu_s"}},
		{"transport subpackage", [][]string{{"repro/internal/transports/mpiio.(*Writer).Step"}}, "transports", nil},
		{"unlisted repro package is campaign plumbing", [][]string{{"repro/internal/experiments.fig1Demux"}}, "campaign", nil},
		{"recursive entry point counted once", [][]string{{recompute}, {flushStep}, {fileFlush}, {flushStep}, {run}}, "pfs",
			[]string{"pfs.flush_cpu_s"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const cpu = 10_000_000
			samples, err := parseProfile(encodeProfile([]synthSample{{tc.stack, cpu}}))
			if err != nil {
				t.Fatal(err)
			}
			att := attribute(samples)
			for _, l := range layers {
				want := int64(0)
				if l == tc.layer {
					want = cpu
				}
				if att.SelfNS[l] != want {
					t.Errorf("SelfNS[%s] = %d, want %d", l, att.SelfNS[l], want)
				}
			}
			for metric := range entryPoints {
				want := int64(0)
				if slices.Contains(tc.entries, metric) {
					want = cpu
				}
				if att.EntryNS[metric] != want {
					t.Errorf("EntryNS[%s] = %d, want %d", metric, att.EntryNS[metric], want)
				}
			}
			if att.TotalNS != cpu || att.Samples != 1 {
				t.Errorf("TotalNS, Samples = %d, %d; want %d, 1", att.TotalNS, att.Samples, cpu)
			}
		})
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	good := encodeProfile([]synthSample{{[][]string{{"repro/internal/pfs.(*OST).recompute"}}, 1}})
	for name, data := range map[string][]byte{
		"truncated":      good[:len(good)-3],
		"not a profile":  []byte("hello, world"),
		"bad gzip":       {0x1f, 0x8b, 0, 0},
		"no value types": {},
	} {
		if _, err := parseProfile(data); err == nil {
			t.Errorf("%s: parseProfile succeeded", name)
		}
	}
}

type synthSample struct {
	stack [][]string
	cpu   int64
}

// encodeProfile writes a minimal profile.proto message the way
// runtime/pprof does: repeated integers packed when there are more than two.
func encodeProfile(samples []synthSample) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	str := func(s string) uint64 {
		if i := slices.Index(strs, s); i >= 0 {
			return uint64(i)
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var out, functions, locations []byte
	funcID := map[string]uint64{}
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		out = pbBytes(out, 1, pbVarint(pbVarint(nil, 1, str(vt[0])), 2, str(vt[1])))
	}
	var locID uint64
	for _, s := range samples {
		var locs []uint64
		for _, loc := range s.stack {
			locID++
			locs = append(locs, locID)
			l := pbVarint(nil, 1, locID)
			for i, fn := range loc {
				id, ok := funcID[fn]
				if !ok {
					id = uint64(len(funcID) + 1)
					funcID[fn] = id
					functions = pbBytes(functions, 5, pbVarint(pbVarint(nil, 1, id), 2, str(fn)))
				}
				l = pbBytes(l, 4, pbVarint(pbVarint(nil, 1, id), 2, uint64(10+i)))
			}
			locations = pbBytes(locations, 4, l)
		}
		msg := pbInts(nil, 1, locs)
		msg = pbInts(msg, 2, []uint64{1, uint64(s.cpu)})
		out = pbBytes(out, 2, msg)
	}
	out = append(out, locations...)
	out = append(out, functions...)
	for _, s := range strs {
		out = pbBytes(out, 6, []byte(s))
	}
	return out
}

func pbVarint(b []byte, num int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func pbBytes(b []byte, num int, payload []byte) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

func pbInts(b []byte, num int, xs []uint64) []byte {
	if len(xs) <= 2 {
		for _, x := range xs {
			b = pbVarint(b, num, x)
		}
		return b
	}
	var packed []byte
	for _, x := range xs {
		packed = binary.AppendUvarint(packed, x)
	}
	return pbBytes(b, num, packed)
}
