package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryInternalPackageHasALayer fails when a package under
// tcn/internal maps to no layer, so its CPU time would go unattributed.
func TestEveryInternalPackageHasALayer(t *testing.T) {
	root := filepath.Join("..", "internal")
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		seen[filepath.ToSlash(rel)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) < 10 {
		t.Fatalf("found only %d packages under %s", len(seen), root)
	}
	for pkg := range seen {
		if layer, _ := internalLayer(pkg); layer == "" {
			t.Errorf("tcn/internal/%s maps to no layer; add it to packageLayers", pkg)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"tcn/internal/sim.(*Engine).RunUntil":                                 "tcn/internal/sim",
		"tcn/internal/fabric.(*Port).Send.func1":                              "tcn/internal/fabric",
		"tcn/internal/obs/prof.(*Scope).Enter":                                "tcn/internal/obs/prof",
		"tcn/internal/parallel.RunTracked[go.shape.struct { a.b/c.D }].func1": "tcn/internal/parallel",
		"runtime.mallocgc":                                                    "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                             "internal/runtime/maps",
		"sort.Slice":                       "sort",
		"main.main":                        "main",
		"type:.eq.tcn/internal/pkt.Packet": "tcn/internal/pkt",
		"runtime/pprof.(*profileBuilder).addCPUData":             "runtime/pprof",
		"tcn/internal/transport.(*Sender).onAck":                 "tcn/internal/transport",
		"tcn/internal/experiments.RunFig6.runTestbedSweep.func1": "tcn/internal/experiments",
		"tcn/internal/lint/callgraph.Build":                      "tcn/internal/lint/callgraph",
		"gogo":                                                   "gogo",
		"tcn/internal/sim.(*Engine).runWheel":                    "tcn/internal/sim",
		"tcn/internal/obs/perf.(*Campaign).ReportEngine":         "tcn/internal/obs/perf",
		"tcn/internal/digest.(*Hash).WriteInt64":                 "tcn/internal/digest",
		"tcn/internal/trace.(*Ledger).Record":                    "tcn/internal/trace",
		"tcn/internal/sched.(*DWRR).Next":                        "tcn/internal/sched",
		"tcn/internal/core.(*TCN).OnDequeue":                     "tcn/internal/core",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// protoBuf is a minimal protobuf writer for building synthetic profiles.
type protoBuf struct{ b []byte }

func (p *protoBuf) key(field, wire int) { p.b = binary.AppendUvarint(p.b, uint64(field<<3|wire)) }
func (p *protoBuf) uint(field int, x uint64) {
	p.key(field, 0)
	p.b = binary.AppendUvarint(p.b, x)
}
func (p *protoBuf) bytes(field int, x []byte) {
	p.key(field, 2)
	p.b = binary.AppendUvarint(p.b, uint64(len(x)))
	p.b = append(p.b, x...)
}
func (p *protoBuf) packed(field int, xs []uint64) {
	var q protoBuf
	for _, x := range xs {
		q.b = binary.AppendUvarint(q.b, x)
	}
	p.bytes(field, q.b)
}

// syntheticProfile encodes a CPU profile whose samples are the given
// stacks (innermost first, one function per location unless a location
// lists several, innermost inlined first), each worth ns nanoseconds.
// Short location lists are written unpacked, as runtime/pprof does.
func syntheticProfile(t *testing.T, stacks [][][]string, ns int64) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var prof protoBuf
	for _, st := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var vt protoBuf
		vt.uint(1, strIdx(st[0]))
		vt.uint(2, strIdx(st[1]))
		prof.bytes(1, vt.b)
	}
	funcs := map[string]uint64{}
	var locs, fnMsgs [][]byte
	for _, stack := range stacks {
		var ids []uint64
		for _, loc := range stack {
			var l protoBuf
			id := uint64(len(locs) + 1)
			l.uint(1, id)
			for _, fn := range loc {
				if funcs[fn] == 0 {
					funcs[fn] = uint64(len(funcs) + 1)
					var f protoBuf
					f.uint(1, funcs[fn])
					f.uint(2, strIdx(fn))
					fnMsgs = append(fnMsgs, f.b)
				}
				var line protoBuf
				line.uint(1, funcs[fn])
				l.bytes(4, line.b)
			}
			locs = append(locs, l.b)
			ids = append(ids, id)
		}
		var s protoBuf
		if len(ids) > 2 {
			s.packed(1, ids)
		} else {
			for _, id := range ids {
				s.uint(1, id)
			}
		}
		s.packed(2, []uint64{1, uint64(ns)})
		prof.bytes(2, s.b)
	}
	for _, l := range locs {
		prof.bytes(4, l)
	}
	for _, f := range fnMsgs {
		prof.bytes(5, f)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestLedgerAttributesSyntheticProfile(t *testing.T) {
	const ms = int64(1e6)
	stacks := [][][]string{
		// Innermost frame in the engine.
		{{"tcn/internal/sim.(*Engine).runWheel"}, {"tcn/internal/sim.(*Engine).RunUntil"}, {"main.main"}},
		// An inlined queue push inside the port: the inlined frame wins.
		{{"tcn/internal/queue.(*FIFO).Push", "tcn/internal/fabric.(*Port).Send"}, {"tcn/internal/sim.(*Engine).runWheel"}},
		// Allocation from the transport counts as runtime.
		{{"runtime.mallocgc"}, {"tcn/internal/transport.(*Sender).send"}},
		// Standard-library frames pass their time to the caller.
		{{"sort.insertionSort"}, {"sort.Slice"}, {"tcn/internal/digest.(*Recorder).Timeline"}},
		// A generic function's shape name holds dots and slashes.
		{{"tcn/internal/parallel.RunTracked[go.shape.struct { tcn/internal/experiments.X }].func1"}},
		// The deterministic profiler is an observer sub-layer.
		{{"tcn/internal/obs/prof.(*Scope).Enter"}, {"tcn/internal/fabric.(*Port).Send"}},
		// Only standard-library frames: unattributed.
		{{"strings.Index"}, {"strings.Contains"}},
		// An unlisted repository package stops the walk: unattributed.
		{{"tcn/internal/nosuchpkg.F"}, {"tcn/internal/sim.(*Engine).RunUntil"}},
		// The benchmark's own CPU profiler.
		{{"runtime/pprof.(*profMap).lookup"}, {"runtime/pprof.profileWriter"}},
		// The perf campaign the benchmark attaches is the benchmark's too.
		{{"tcn/internal/obs/perf.(*Campaign).ReportEngine"}, {"tcn/internal/experiments.(*Obs).ReportCell"}},
	}
	l := newLedger()
	if err := l.AddProfile(syntheticProfile(t, stacks, ms)); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"sim": ms, "queue": ms, "runtime": ms, "observers": 2 * ms, "parallel": ms, "bench": 2 * ms,
	}
	for _, layer := range layers {
		if got := l.Layer[layer]; got != want[layer] {
			t.Errorf("layer %s = %d ns, want %d", layer, got, want[layer])
		}
	}
	if l.Sub["digest"] != ms || l.Sub["prof"] != ms || l.Sub["trace"] != 0 || l.Sub["obs"] != 0 {
		t.Errorf("observer sub-layers = %v, want digest and prof 1ms each", l.Sub)
	}
	if l.Unattributed != 2*ms || l.Total != 10*ms {
		t.Errorf("unattributed %d, total %d; want %d, %d", l.Unattributed, l.Total, 2*ms, 10*ms)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("parseProfile accepted non-gzip input")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x0a, 0xff}) // field 1, length beyond the message
	zw.Close()
	if _, err := parseProfile(gz.Bytes()); err == nil {
		t.Error("parseProfile accepted a truncated message")
	}
}
