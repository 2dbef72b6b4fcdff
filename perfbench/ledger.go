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

// The layer ledger splits a runtime/pprof CPU profile by module. A
// sample's self time goes to the layer of its innermost frame; frames in
// standard-library packages other than the runtime (sort, math, sync, …)
// are skipped so the time lands on the repository code that called them.

// Top-level layers. Their self times partition the attributed CPU time,
// so they add up to the ledger total.
var layers = []string{
	"sim", "fabric", "queue", "sched", "marker", "transport", "dcqcn",
	"pkt", "observers", "parallel", "experiments", "runtime", "bench",
}

// packageLayers maps each package under tcn/internal (path relative to
// it) to a layer and, for observers, a sub-layer. A path maps by its
// longest listed prefix, so new sub-packages inherit their parent's layer.
var packageLayers = []struct{ pkg, layer, sub string }{
	{"sim", "sim", ""},
	{"fabric", "fabric", ""},
	{"queue", "queue", ""},
	{"qdisc", "queue", ""},
	{"sched", "sched", ""},
	{"core", "marker", ""},
	{"aqm", "marker", ""},
	{"transport", "transport", ""},
	{"pias", "transport", ""},
	{"dcqcn", "dcqcn", ""},
	{"pkt", "pkt", ""},
	{"digest", "observers", "digest"},
	{"trace", "observers", "trace"},
	{"obs", "observers", "obs"},
	{"obs/prof", "observers", "prof"},
	// The perf campaign is the benchmark's own counter source, attached
	// to every workload, so its cost is the benchmark's, not an observer's.
	{"obs/perf", "bench", ""},
	{"parallel", "parallel", ""},
	{"experiments", "experiments", ""},
	{"workload", "experiments", ""},
	{"metrics", "experiments", ""},
	// Build-tag-gated assertions and static tooling: no code of theirs
	// runs in a benchmark cell, so their time is the caller's concern.
	{"invariant", "experiments", ""},
	{"testutil", "experiments", ""},
	{"lint", "experiments", ""},
}

const modulePrefix = "tcn/internal/"

// internalLayer returns the layer and sub-layer of a package path
// relative to tcn/internal, or "" when none is listed.
func internalLayer(rel string) (layer, sub string) {
	best := -1
	for _, e := range packageLayers {
		if (rel == e.pkg || strings.HasPrefix(rel, e.pkg+"/")) && len(e.pkg) > best {
			best, layer, sub = len(e.pkg), e.layer, e.sub
		}
	}
	return layer, sub
}

// packageOf extracts the import path from a Go symbol name such as
// "tcn/internal/sim.(*Engine).RunUntil" or
// "tcn/internal/parallel.RunTracked[go.shape.int]".
func packageOf(fn string) string {
	fn = strings.TrimPrefix(fn, "type:.eq.")
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// frameLayer classifies one frame. skip reports a standard-library frame
// whose time belongs to its caller.
func frameLayer(fn string) (layer, sub string, skip bool) {
	pkg := packageOf(fn)
	switch {
	case strings.HasPrefix(pkg, modulePrefix):
		layer, sub = internalLayer(strings.TrimPrefix(pkg, modulePrefix))
		if layer == "" {
			// An unlisted package: unattributed, and the layer test fails.
			return "", "", false
		}
		return layer, sub, false
	case pkg == "main" || strings.HasPrefix(pkg, "tcn/") || pkg == "runtime/pprof":
		// The benchmark itself, including its CPU profiler.
		return "bench", "", false
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/"):
		return "runtime", "", false
	}
	return "", "", true
}

// Ledger is CPU time per layer and observer sub-layer, in nanoseconds.
type Ledger struct {
	Layer        map[string]int64
	Sub          map[string]int64
	Unattributed int64
	Total        int64
}

func newLedger() *Ledger {
	return &Ledger{Layer: map[string]int64{}, Sub: map[string]int64{}}
}

// add attributes one sample of ns CPU nanoseconds whose frames run from
// the innermost outwards.
func (l *Ledger) add(frames []string, ns int64) {
	l.Total += ns
	for _, fn := range frames {
		layer, sub, skip := frameLayer(fn)
		if skip {
			continue
		}
		if layer == "" {
			break
		}
		l.Layer[layer] += ns
		if sub != "" {
			l.Sub[sub] += ns
		}
		return
	}
	l.Unattributed += ns
}

// AddProfile attributes every sample of a gzip-compressed profile.proto
// CPU profile, as runtime/pprof writes it.
func (l *Ledger) AddProfile(gz []byte) error {
	p, err := parseProfile(gz)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			frames = append(frames, p.locFrames[loc]...)
		}
		l.add(frames, s.value)
	}
	return nil
}

// profile is the subset of profile.proto the ledger needs: per sample,
// its CPU nanoseconds and location ids (innermost first), and per
// location its function names (innermost inlined frame first).
type profile struct {
	samples   []profSample
	locFrames map[uint64][]string
}

type profSample struct {
	locs  []uint64
	value int64
}

// parseProfile decodes a gzip-compressed profile.proto message. The
// value used per sample is the one whose unit is "nanoseconds" (the
// second of runtime/pprof's samples/count, cpu/nanoseconds pair).
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		sampleUnits []int64 // string-table index of each sample type's unit
		samples     []rawSample
		locLines    = map[uint64][]uint64{} // location id → function ids
		funcNames   = map[uint64]int64{}    // function id → name string index
		strs        []string
	)
	err = walkFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return walkFields(b, func(f int, v uint64, _ []byte) error {
				if f == 2 {
					sampleUnits = append(sampleUnits, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					var u []uint64
					if err := appendVarints(&u, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	vi := len(sampleUnits) - 1
	for i, u := range sampleUnits {
		if str(u) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile: no sample types")
	}
	p := &profile{locFrames: map[uint64][]string{}}
	for id, fns := range locLines {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcNames[f])
		}
		p.locFrames[id] = names
	}
	for _, s := range samples {
		if vi >= len(s.values) {
			return nil, errors.New("profile: sample with too few values")
		}
		p.samples = append(p.samples, profSample{locs: s.locs, value: s.values[vi]})
	}
	return p, nil
}

// walkFields calls fn for every field of a protobuf message: v carries a
// varint or fixed value, b a length-delimited payload.
func walkFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding: one
// value (b == nil) or a packed run.
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
