package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file attributes a runtime/pprof CPU profile to the repository's
// modules. It decodes just enough of the profile.proto wire format
// (samples, locations, functions, string table) to walk each sample's
// stack, so the benchmark needs nothing beyond the standard library.

// cpuSample is one decoded stack (leaf first) with its CPU nanoseconds.
type cpuSample struct {
	stack []string
	cpuNs int64
}

// gcFrames are the runtime frames whose CPU counts as garbage
// collection, allocation or write-barrier work.
var gcFrames = []string{
	"runtime.gc", "runtime.(*gc", "runtime.mallocgc", "runtime.newobject",
	"runtime.scan", "runtime.greyobject", "runtime.markroot", "runtime.markBits",
	"runtime.(*mspan)", "runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)",
	"runtime.(*pageAlloc)", "runtime.sweepone", "runtime.(*sweepLocked)", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.heapBits", "runtime.(*heapBits", "runtime.heapSetType",
	"runtime.wbBuf", "runtime.bulkBarrier", "runtime.findObject", "runtime.spanOf",
	"runtime.typePointers", "runtime.(*typePointers)", "runtime.nextFreeFast",
	"runtime.deductAssistCredit", "runtime.memclrNoHeapPointersChunked",
}

// moduleOf names the layer a frame belongs to: "gc" for collector and
// allocator frames, the package name for a repository package
// (sora/internal/<pkg>), "harness" for the benchmark itself, and "" for
// any other runtime or standard-library frame.
func moduleOf(fn string) string {
	for _, p := range gcFrames {
		if strings.HasPrefix(fn, p) {
			return "gc"
		}
	}
	if rest, ok := strings.CutPrefix(fn, "sora/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "sora/perfbench") {
		return "harness"
	}
	return ""
}

// attribute charges each sample's CPU to the module that owns its leaf
// frame. Runtime and standard-library frames (a memmove, a map lookup)
// are looked through to the nearest caller that a module owns, except
// collector, allocator and write-barrier frames, which are "gc". Samples
// with no owned frame count as "other". It returns CPU seconds per
// module and the total.
func attribute(samples []cpuSample) (byModule map[string]float64, total float64) {
	byModule = make(map[string]float64)
	for _, s := range samples {
		owner := "other"
		for _, fn := range s.stack {
			if m := moduleOf(fn); m != "" {
				owner = m
				break
			}
		}
		sec := float64(s.cpuNs) / 1e9
		byModule[owner] += sec
		total += sec
	}
	return byModule, total
}

// parseCPUProfile decodes a (gzip-compressed) runtime/pprof CPU profile.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		strtab    []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		valueKind []int64                 // sample_type type string indices
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					valueKind = append(valueKind, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, bb []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, w, v, bb)
				case 2:
					for _, u := range appendVarints(nil, w, v, bb) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(bb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i >= 0 && i < int64(len(strtab)) {
			return strtab[i]
		}
		return ""
	}
	cpuIdx := 0
	for i, k := range valueKind {
		if str(k) == "cpu" {
			cpuIdx = i
		}
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpuIdx >= len(s.values) {
			continue
		}
		cs := cpuSample{cpuNs: s.values[cpuIdx]}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				cs.stack = append(cs.stack, str(funcName[fid]))
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// appendVarints appends a repeated varint field, packed (wire type 2)
// or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("cpu profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire types 0, 1, 5) and payload (wire
// type 2).
func eachField(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("cpu profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}
