package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Sample is one CPU profile sample: its call stack as function names,
// innermost frame first with inlined frames expanded, and the sample count
// and CPU nanoseconds it carries.
type Sample struct {
	Frames []string
	Count  int64
	CPU    int64
}

// parseProfile decodes a (gzipped) pprof CPU profile into its samples. It
// reads only what attribution needs from the profile.proto message: the
// sample types, samples, locations with their lines, functions and the
// string table.
func parseProfile(data []byte) ([]Sample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}

	var sampleTypes, samples, locations, functions [][]byte
	var strs []string
	err := fields(data, func(num int, _ uint64, msg []byte) error {
		switch num {
		case 1:
			sampleTypes = append(sampleTypes, msg)
		case 2:
			samples = append(samples, msg)
		case 4:
			locations = append(locations, msg)
		case 5:
			functions = append(functions, msg)
		case 6:
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", fmt.Errorf("profile: string index %d out of range", i)
		}
		return strs[i], nil
	}

	// ValueType{type=1, unit=2}: find the "samples" and "cpu" columns.
	countCol, cpuCol := -1, -1
	for i, msg := range sampleTypes {
		var typ uint64
		if err := fields(msg, func(num int, v uint64, _ []byte) error {
			if num == 1 {
				typ = v
			}
			return nil
		}); err != nil {
			return nil, err
		}
		name, err := str(typ)
		if err != nil {
			return nil, err
		}
		switch name {
		case "samples":
			countCol = i
		case "cpu":
			cpuCol = i
		}
	}
	if countCol < 0 || cpuCol < 0 {
		return nil, errors.New("profile: not a CPU profile (no samples/cpu value types)")
	}

	// Function{id=1, name=2}.
	funcName := map[uint64]string{}
	for _, msg := range functions {
		var id, name uint64
		if err := fields(msg, func(num int, v uint64, _ []byte) error {
			switch num {
			case 1:
				id = v
			case 2:
				name = v
			}
			return nil
		}); err != nil {
			return nil, err
		}
		s, err := str(name)
		if err != nil {
			return nil, err
		}
		funcName[id] = s
	}

	// Location{id=1, line=4 (Line{function_id=1})}: lines run innermost
	// first, the last one being the function the others were inlined into.
	locFrames := map[uint64][]string{}
	for _, msg := range locations {
		var id uint64
		var frames []string
		err := fields(msg, func(num int, v uint64, line []byte) error {
			switch num {
			case 1:
				id = v
			case 4:
				return fields(line, func(num int, v uint64, _ []byte) error {
					if num != 1 {
						return nil
					}
					name, ok := funcName[v]
					if !ok {
						return fmt.Errorf("profile: unknown function id %d", v)
					}
					frames = append(frames, name)
					return nil
				})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		locFrames[id] = frames
	}

	// Sample{location_id=1, value=2}, both repeated and possibly packed.
	out := make([]Sample, 0, len(samples))
	for _, msg := range samples {
		var locs, values []uint64
		err := fields(msg, func(num int, v uint64, packed []byte) error {
			var err error
			switch num {
			case 1:
				locs, err = appendVarints(locs, v, packed)
			case 2:
				values, err = appendVarints(values, v, packed)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		if len(values) != len(sampleTypes) {
			return nil, fmt.Errorf("profile: sample has %d values for %d types", len(values), len(sampleTypes))
		}
		s := Sample{Count: int64(values[countCol]), CPU: int64(values[cpuCol])}
		for _, id := range locs {
			frames, ok := locFrames[id]
			if !ok {
				return nil, fmt.Errorf("profile: unknown location id %d", id)
			}
			s.Frames = append(s.Frames, frames...)
		}
		out = append(out, s)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks the protobuf message b, calling fn once per field. A varint
// field arrives in v with a nil payload; a length-delimited field arrives as
// its payload. Fixed-width fields are skipped: nothing read here uses them.
func fields(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errTruncated
			}
			payload := b[n : n+int(l) : n+int(l)] // never nil: b is not
			b = b[n+int(l):]
			if err := fn(num, 0, payload); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
	}
	return nil
}

// appendVarints appends one element of a repeated integer field: the varint
// v itself, or every varint in a packed payload.
func appendVarints(dst []uint64, v uint64, packed []byte) ([]uint64, error) {
	if packed == nil {
		return append(dst, v), nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return nil, errTruncated
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst, nil
}
