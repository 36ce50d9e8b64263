// Package pprofile is a minimal reader for pprof CPU profiles — the
// gzipped protobuf `runtime/pprof` emits — built on the standard
// library alone (the repo's zero-dependency rule). It decodes just
// enough of the profile.proto schema to answer the question the bench
// harness asks: which functions did the profiled run spend its time in?
//
// Decoded fields (profile.proto field numbers in parentheses):
//
//	Profile:  sample_type(1), sample(2), location(4), function(5),
//	          string_table(6), period(12)
//	ValueType: type(1), unit(2) — string-table indices
//	Sample:   location_id(1), value(2)
//	Location: id(1), line(4)
//	Line:     function_id(1)
//	Function: id(1), name(2)
//
// Flat cost attributes a sample's value to its leaf frame
// (location_id[0]); cumulative cost credits every distinct function on
// the stack once (recursion does not double-count). Values use the last
// sample type, which for CPU profiles is cpu/nanoseconds.
package pprofile

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
)

// Profile is a parsed CPU profile reduced to per-function costs.
type Profile struct {
	// SampleType and SampleUnit name the value dimension used for Flat
	// and Cum (the profile's last sample type, e.g. "cpu"/"nanoseconds").
	SampleType string
	SampleUnit string
	// Samples is the number of Sample records.
	Samples int64
	// Total is the sum of every sample's value.
	Total int64
	// Functions holds per-function costs, sorted by Flat descending
	// (ties broken by name for deterministic output).
	Functions []FuncStat
}

// FuncStat is one function's aggregate cost.
type FuncStat struct {
	Name string
	// Flat is the value attributed to samples whose leaf frame is this
	// function.
	Flat int64
	// Cum is the value of every sample with this function anywhere on
	// its stack.
	Cum int64
}

// Parse reads a pprof profile, gzipped (as runtime/pprof writes it) or
// raw.
func Parse(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprofile: gunzip: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if cerr := zr.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("pprofile: gunzip: %w", err)
		}
		data = raw
	}
	return parseProfile(data)
}

// errTruncated reports a message that ended mid-field.
var errTruncated = errors.New("pprofile: truncated protobuf")

// varint decodes a base-128 varint at data[i:], returning the value and
// the next offset, or an error on overflow/truncation.
func varint(data []byte, i int) (uint64, int, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if i >= len(data) {
			return 0, 0, errTruncated
		}
		b := data[i]
		i++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, i, nil
		}
	}
	return 0, 0, errors.New("pprofile: varint overflow")
}

// field decodes one protobuf field header + payload at data[i:]. For
// wire type 2 it returns the delimited bytes in buf; for wire type 0
// the value in num.
func field(data []byte, i int) (fieldNum int, wire int, num uint64, buf []byte, next int, err error) {
	tag, i, err := varint(data, i)
	if err != nil {
		return 0, 0, 0, nil, 0, err
	}
	fieldNum = int(tag >> 3)
	wire = int(tag & 7)
	switch wire {
	case 0: // varint
		num, i, err = varint(data, i)
		return fieldNum, wire, num, nil, i, err
	case 1: // fixed64
		if i+8 > len(data) {
			return 0, 0, 0, nil, 0, errTruncated
		}
		for k := 7; k >= 0; k-- {
			num = num<<8 | uint64(data[i+k])
		}
		return fieldNum, wire, num, nil, i + 8, nil
	case 2: // length-delimited
		n, j, err := varint(data, i)
		if err != nil {
			return 0, 0, 0, nil, 0, err
		}
		if n > uint64(len(data)-j) {
			return 0, 0, 0, nil, 0, errTruncated
		}
		return fieldNum, wire, 0, data[j : j+int(n)], j + int(n), nil
	case 5: // fixed32
		if i+4 > len(data) {
			return 0, 0, 0, nil, 0, errTruncated
		}
		for k := 3; k >= 0; k-- {
			num = num<<8 | uint64(data[i+k])
		}
		return fieldNum, wire, num, nil, i + 4, nil
	default:
		return 0, 0, 0, nil, 0, fmt.Errorf("pprofile: unsupported wire type %d", wire)
	}
}

// packedVarints decodes buf as a packed repeated varint payload. A
// single non-packed value is just the one-element case.
func packedVarints(buf []byte) ([]uint64, error) {
	var out []uint64
	for i := 0; i < len(buf); {
		v, j, err := varint(buf, i)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		i = j
	}
	return out, nil
}

type sampleRec struct {
	locIDs []uint64
	values []int64
}

func parseProfile(data []byte) (*Profile, error) {
	var (
		sampleTypes [][2]uint64 // (type, unit) string-table indices
		samples     []sampleRec
		locFunc     = map[uint64][]uint64{} // location id -> function ids, leaf line first
		funcName    = map[uint64]uint64{}   // function id -> name string index
		strings     []string
	)

	for i := 0; i < len(data); {
		fn, wire, _, buf, next, err := field(data, i)
		if err != nil {
			return nil, err
		}
		i = next
		switch fn {
		case 1: // sample_type: ValueType
			if wire != 2 {
				return nil, fmt.Errorf("pprofile: sample_type wire %d", wire)
			}
			var vt [2]uint64
			for j := 0; j < len(buf); {
				f, _, v, _, n, err := field(buf, j)
				if err != nil {
					return nil, err
				}
				j = n
				if f == 1 {
					vt[0] = v
				} else if f == 2 {
					vt[1] = v
				}
			}
			sampleTypes = append(sampleTypes, vt)
		case 2: // sample: Sample
			if wire != 2 {
				return nil, fmt.Errorf("pprofile: sample wire %d", wire)
			}
			var rec sampleRec
			for j := 0; j < len(buf); {
				f, w, v, b, n, err := field(buf, j)
				if err != nil {
					return nil, err
				}
				j = n
				switch f {
				case 1: // location_id
					if w == 2 {
						ids, err := packedVarints(b)
						if err != nil {
							return nil, err
						}
						rec.locIDs = append(rec.locIDs, ids...)
					} else {
						rec.locIDs = append(rec.locIDs, v)
					}
				case 2: // value
					if w == 2 {
						vs, err := packedVarints(b)
						if err != nil {
							return nil, err
						}
						for _, u := range vs {
							rec.values = append(rec.values, int64(u))
						}
					} else {
						rec.values = append(rec.values, int64(v))
					}
				}
			}
			samples = append(samples, rec)
		case 4: // location: Location
			if wire != 2 {
				return nil, fmt.Errorf("pprofile: location wire %d", wire)
			}
			var id uint64
			var fns []uint64
			for j := 0; j < len(buf); {
				f, w, v, b, n, err := field(buf, j)
				if err != nil {
					return nil, err
				}
				j = n
				switch f {
				case 1: // id
					id = v
				case 4: // line: Line
					if w != 2 {
						continue
					}
					for k := 0; k < len(b); {
						lf, _, lv, _, ln, err := field(b, k)
						if err != nil {
							return nil, err
						}
						k = ln
						if lf == 1 { // function_id
							fns = append(fns, lv)
						}
					}
				}
			}
			locFunc[id] = fns
		case 5: // function: Function
			if wire != 2 {
				return nil, fmt.Errorf("pprofile: function wire %d", wire)
			}
			var id, name uint64
			for j := 0; j < len(buf); {
				f, _, v, _, n, err := field(buf, j)
				if err != nil {
					return nil, err
				}
				j = n
				if f == 1 {
					id = v
				} else if f == 2 {
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			if wire != 2 {
				return nil, fmt.Errorf("pprofile: string_table wire %d", wire)
			}
			strings = append(strings, string(buf))
		}
	}

	if len(sampleTypes) == 0 {
		return nil, errors.New("pprofile: no sample types")
	}
	str := func(idx uint64) string {
		if idx < uint64(len(strings)) {
			return strings[idx]
		}
		return ""
	}
	// The last sample type is the default value dimension (cpu profiles:
	// samples/count, cpu/nanoseconds — we want the latter).
	vi := len(sampleTypes) - 1
	p := &Profile{
		SampleType: str(sampleTypes[vi][0]),
		SampleUnit: str(sampleTypes[vi][1]),
	}

	// locName resolves a location to its representative (leaf-line)
	// function name; inlined frames share a location, leaf line first.
	nameOf := func(loc uint64) string {
		fns := locFunc[loc]
		if len(fns) == 0 {
			return fmt.Sprintf("location#%d", loc)
		}
		return str(funcName[fns[0]])
	}

	flat := map[string]int64{}
	cum := map[string]int64{}
	for _, s := range samples {
		if len(s.values) <= vi {
			continue
		}
		v := s.values[vi]
		p.Samples++
		p.Total += v
		if len(s.locIDs) == 0 {
			continue
		}
		flat[nameOf(s.locIDs[0])] += v
		seen := map[string]bool{}
		for _, loc := range s.locIDs {
			// Every function on the location's inline stack accrues
			// cumulative cost, each at most once per sample.
			fns := locFunc[loc]
			if len(fns) == 0 {
				n := nameOf(loc)
				if !seen[n] {
					seen[n] = true
					cum[n] += v
				}
				continue
			}
			for _, fid := range fns {
				n := str(funcName[fid])
				if !seen[n] {
					seen[n] = true
					cum[n] += v
				}
			}
		}
	}

	for name, c := range cum {
		p.Functions = append(p.Functions, FuncStat{Name: name, Flat: flat[name], Cum: c})
	}
	sort.Slice(p.Functions, func(i, j int) bool {
		a, b := p.Functions[i], p.Functions[j]
		if a.Flat != b.Flat {
			return a.Flat > b.Flat
		}
		return a.Name < b.Name
	})
	return p, nil
}
