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

// layers names the simulator's modules in the order the benchmark
// reports them. host_s.<layer> is the flat (self) CPU time the profile
// attributes to the layer's packages; "other" collects everything else
// (stats, obs, arch, the standard library outside the runtime and the
// benchmark itself), so the layers sum to the profile total.
var layers = []string{
	"workload", "cpu", "tlb", "cache", "bus", "mmc", "core", "mem",
	"vm", "ptable", "kernel", "sim", "replay", "exp", "runtime", "other",
}

// layerOf maps a Go symbol name to its layer.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case !strings.HasPrefix(pkg, "shadowtlb/internal/"):
		return "other"
	}
	mod := strings.TrimPrefix(pkg, "shadowtlb/internal/")
	if i := strings.IndexByte(mod, '/'); i >= 0 {
		mod = mod[:i] // workload/radix -> workload, exp/runner -> exp
	}
	if mod == "trace" {
		return "replay" // the trace format is the replay layer's input
	}
	for _, l := range layers {
		if l == mod {
			return l
		}
	}
	return "other"
}

// packageOf extracts the import path from a symbol such as
// "shadowtlb/internal/tlb.(*TLB).Lookup" or "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerSeconds groups a CPU profile's flat time by layer. Only the
// standard library is used: the profile's protobuf is decoded by hand
// below.
func layerSeconds(profile []byte) (map[string]float64, error) {
	flat, err := flatByFunction(profile)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for fn, s := range flat {
		out[layerOf(fn)] += s
	}
	return out, nil
}

// flatByFunction decodes a gzipped profile.proto CPU profile and returns
// the seconds of CPU time whose leaf frame — the innermost inlined
// function of the sample's first location — is each function.
func flatByFunction(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf uint64 // first location id
		vals []int64
	}
	var (
		strs      []string
		samples   []sample
		locFunc   = map[uint64]uint64{} // location id -> innermost function id
		funcName  = map[uint64]int64{}  // function id -> string index
		typeUnits [][2]int64            // (type, unit) string indexes
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			if err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			typeUnits = append(typeUnits, t)
		case 2: // sample
			var locs []uint64
			var vals []int64
			if err := fields(b, func(n, w int, v uint64, bb []byte) error {
				switch n {
				case 1:
					return varints(w, v, bb, func(x uint64) { locs = append(locs, x) })
				case 2:
					return varints(w, v, bb, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 {
				samples = append(samples, sample{locs[0], vals})
			}
		case 4: // location
			var id, fn uint64
			if err := fields(b, func(n, _ int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line: the first is the innermost inlined call
					if fn == 0 {
						return fields(bb, func(n, _ int, v uint64, _ []byte) error {
							if n == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // function
			var id uint64
			var name int64
			if err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	nsIndex := -1
	for i, t := range typeUnits {
		if int(t[0]) < len(strs) && int(t[1]) < len(strs) && strs[t[0]] == "cpu" && strs[t[1]] == "nanoseconds" {
			nsIndex = i
		}
	}
	if nsIndex < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	out := map[string]float64{}
	for _, s := range samples {
		if nsIndex >= len(s.vals) {
			continue
		}
		name := "?"
		if si, ok := funcName[locFunc[s.leaf]]; ok && int(si) < len(strs) {
			name = strs[si]
		}
		out[name] += float64(s.vals[nsIndex]) / 1e9
	}
	return out, nil
}

// fields walks the top-level fields of a protobuf message, handing each
// to fn with its number, wire type, varint value (wire type 0) or bytes
// (wire type 2). Fixed-width fields are skipped.
func fields(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated varint field in either encoding: one value
// per field (wire type 0) or packed (wire type 2).
func varints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
