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

// cpuShares attributes the samples of a runtime/pprof CPU profile to
// layers: a sample whose stack runs garbage-collector code counts as
// runtime_gc; otherwise it belongs to the innermost frame in one of the
// layer packages below (frames in other packages, such as the lexer or
// the AST helpers, count toward the layer that called them); samples
// with no such frame count as other.
func cpuShares(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		layer := "other"
		if p.inGC(s.locs) {
			layer = "runtime_gc"
		} else if l := p.innermostLayer(s.locs); l != "" {
			layer = l
		}
		counts[layer] += s.value
		total += s.value
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = share(float64(counts[l]), float64(total))
	}
	return shares, nil
}

// layerPackages maps a package path to its cpu_share layer.
var layerPackages = map[string]string{
	"gadt/internal/pascal/parser":   "parser",
	"gadt/internal/pascal/sem":      "sem",
	"gadt/internal/transform":       "transform",
	"gadt/internal/analysis/lint":   "lint",
	"gadt/internal/mutate":          "mutate",
	"gadt/internal/analysis/absint": "absint",
	"gadt/internal/pascal/interp":   "interp",
	"gadt/internal/pascal/vm":       "vm",
	"gadt/internal/exectree":        "exectree",
	"gadt/internal/slicing/dynamic": "dynamic",
	"gadt/internal/debugger":        "debugger",
	"gadt/internal/assertion":       "assertion",
	"gadt/internal/tgen":            "tgen",
	"gadt/internal/serve":           "serve",
}

// gcPrefixes identify garbage-collector functions: background and
// assist marking, sweeping, scavenging and write-barrier flushes.
var gcPrefixes = []string{
	"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.scanframeworker", "runtime.greyobject",
	"runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge",
	"runtime.wbBufFlush", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
}

// packageOf returns the package path of a fully qualified Go function
// name such as "gadt/internal/pascal/parser.(*parser).parseExpr".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // CPU nanoseconds
}

type profile struct {
	samples []profSample
	// funcsAt lists a location's function names, innermost inlined
	// function first.
	funcsAt map[uint64][]string
}

func (p *profile) inGC(locs []uint64) bool {
	for _, id := range locs {
		for _, fn := range p.funcsAt[id] {
			for _, pre := range gcPrefixes {
				if strings.HasPrefix(fn, pre) {
					return true
				}
			}
		}
	}
	return false
}

func (p *profile) innermostLayer(locs []uint64) string {
	for _, id := range locs {
		for _, fn := range p.funcsAt[id] {
			if l, ok := layerPackages[packageOf(fn)]; ok {
				return l
			}
		}
	}
	return ""
}

// parseProfile decodes the parts of a gzipped profile.proto that
// attribution needs: samples (location IDs and the last value), the
// locations' line entries, function names and the string table.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		samples   []profSample
		locFuncs  = make(map[uint64][]uint64) // location -> function IDs
		funcNames = make(map[uint64]int64)    // function -> string index
		strs      []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s profSample
			var vals []int64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = vals[len(vals)-1]
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, funcsAt: make(map[uint64][]string, len(locFuncs))}
	for loc, fns := range locFuncs {
		for _, f := range fns {
			if i := funcNames[f]; i >= 0 && int(i) < len(strs) {
				p.funcsAt[loc] = append(p.funcsAt[loc], strs[i])
			}
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field's values: a packed
// field arrives as bytes b, an unpacked one as the single varint v.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or, for length-delimited fields,
// its bytes (nil for other wire types).
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("short protobuf fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad protobuf length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("short protobuf fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}
