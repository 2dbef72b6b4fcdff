package prof

import (
	"bytes"
	"compress/gzip"
	"io"
	"testing"

	"tcn/internal/sim"
)

// The round-trip reader below is a deliberately minimal profile.proto
// decoder — varints and length-delimited fields only, just enough to
// verify the encoder against the wire format `go tool pprof` consumes,
// without importing any protobuf package.

type preader struct {
	b []byte
	i int
}

func (r *preader) done() bool { return r.i >= len(r.b) }

func (r *preader) varint(t *testing.T) uint64 {
	t.Helper()
	var v uint64
	for shift := 0; ; shift += 7 {
		if r.i >= len(r.b) {
			t.Fatal("truncated varint")
		}
		c := r.b[r.i]
		r.i++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
}

// field reads one tag and returns (number, wire type).
func (r *preader) field(t *testing.T) (int, int) {
	tag := r.varint(t)
	return int(tag >> 3), int(tag & 7)
}

// bytes reads one length-delimited payload.
func (r *preader) bytes(t *testing.T) []byte {
	t.Helper()
	n := r.varint(t)
	if r.i+int(n) > len(r.b) {
		t.Fatal("truncated bytes field")
	}
	out := r.b[r.i : r.i+int(n)]
	r.i += int(n)
	return out
}

// packedU64 decodes a packed repeated varint payload.
func packedU64(t *testing.T, b []byte) []uint64 {
	t.Helper()
	r := &preader{b: b}
	var out []uint64
	for !r.done() {
		out = append(out, r.varint(t))
	}
	return out
}

type decodedProfile struct {
	strings     []string
	sampleTypes [][2]uint64 // (type idx, unit idx)
	samples     []struct {
		locs   []uint64
		values []uint64
	}
	locFn       map[uint64]uint64 // location id -> function id
	fnName      map[uint64]uint64 // function id -> name string idx
	duration    uint64
	defaultType uint64
}

func decodeProfile(t *testing.T, raw []byte) *decodedProfile {
	t.Helper()
	d := &decodedProfile{locFn: map[uint64]uint64{}, fnName: map[uint64]uint64{}}
	r := &preader{b: raw}
	for !r.done() {
		num, wire := r.field(t)
		switch {
		case num == fieldStringTable && wire == wireBytes:
			d.strings = append(d.strings, string(r.bytes(t)))
		case num == fieldSampleType && wire == wireBytes:
			sub := &preader{b: r.bytes(t)}
			var st [2]uint64
			for !sub.done() {
				n, _ := sub.field(t)
				v := sub.varint(t)
				if n == vtType {
					st[0] = v
				} else if n == vtUnit {
					st[1] = v
				}
			}
			d.sampleTypes = append(d.sampleTypes, st)
		case num == fieldSample && wire == wireBytes:
			sub := &preader{b: r.bytes(t)}
			var s struct {
				locs   []uint64
				values []uint64
			}
			for !sub.done() {
				n, _ := sub.field(t)
				b := sub.bytes(t)
				if n == sampleLocationID {
					s.locs = packedU64(t, b)
				} else if n == sampleValue {
					s.values = packedU64(t, b)
				}
			}
			d.samples = append(d.samples, s)
		case num == fieldLocation && wire == wireBytes:
			sub := &preader{b: r.bytes(t)}
			var id, fn uint64
			for !sub.done() {
				n, w := sub.field(t)
				if n == locID && w == wireVarint {
					id = sub.varint(t)
					continue
				}
				line := &preader{b: sub.bytes(t)}
				for !line.done() {
					ln, _ := line.field(t)
					v := line.varint(t)
					if ln == lineFunctionID {
						fn = v
					}
				}
			}
			d.locFn[id] = fn
		case num == fieldFunction && wire == wireBytes:
			sub := &preader{b: r.bytes(t)}
			var id, name uint64
			for !sub.done() {
				n, _ := sub.field(t)
				v := sub.varint(t)
				if n == fnID {
					id = v
				} else if n == fnName {
					name = v
				}
			}
			d.fnName[id] = name
		case num == fieldDurationNanos && wire == wireVarint:
			d.duration = r.varint(t)
		case num == fieldDefaultSampleType && wire == wireVarint:
			d.defaultType = r.varint(t)
		case wire == wireBytes:
			r.bytes(t)
		default:
			r.varint(t)
		}
	}
	return d
}

// stackNames resolves one sample's leaf-first location ids into root-first
// frame names.
func (d *decodedProfile) stackNames(t *testing.T, locs []uint64) []string {
	t.Helper()
	out := make([]string, 0, len(locs))
	for i := len(locs) - 1; i >= 0; i-- {
		fn, ok := d.locFn[locs[i]]
		if !ok {
			t.Fatalf("sample references unknown location %d", locs[i])
		}
		idx, ok := d.fnName[fn]
		if !ok {
			t.Fatalf("location %d references unknown function %d", locs[i], fn)
		}
		if idx >= uint64(len(d.strings)) {
			t.Fatalf("function %d name index %d out of range", fn, idx)
		}
		out = append(out, d.strings[idx])
	}
	return out
}

// TestPprofRoundTrip drives a known mini-simulation, decodes the gzip
// profile.proto export with the minimal reader above, and checks every
// structural invariant pprof relies on plus the exact attributed values.
func TestPprofRoundTrip(t *testing.T) {
	p := New(Config{})
	eng := sim.NewEngine()
	p.AttachEngine(eng)
	port := p.NewScope("port:x")
	sch := p.NewScope("sched:y")
	eng.At(10*sim.Nanosecond, func() { port.Enter(); p.Exit() })                        // port:x owns 10ns, 1 event
	eng.At(30*sim.Nanosecond, func() { port.Enter(); sch.Enter(); p.Exit(); p.Exit() }) // port:x;sched:y owns 20ns, 1 event
	eng.At(50*sim.Nanosecond, func() {})                                                // engine owns 20ns, 1 event
	eng.RunUntil(80 * sim.Nanosecond)                                                   // + 30ns engine tail
	p.FinishEngine(eng)

	var buf bytes.Buffer
	if err := p.WritePprof(&buf); err != nil {
		t.Fatalf("WritePprof: %v", err)
	}
	gz, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatalf("export is not gzip: %v", err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	d := decodeProfile(t, raw)

	if len(d.strings) == 0 || d.strings[0] != "" {
		t.Fatalf("string table must start with the empty string: %q", d.strings)
	}
	str := func(i uint64) string {
		if i >= uint64(len(d.strings)) {
			t.Fatalf("string index %d out of range", i)
		}
		return d.strings[i]
	}
	wantTypes := [][2]string{{"events", "count"}, {"sim_time", "nanoseconds"}, {"wall_time", "nanoseconds"}}
	if len(d.sampleTypes) != len(wantTypes) {
		t.Fatalf("%d sample types, want %d", len(d.sampleTypes), len(wantTypes))
	}
	for i, st := range d.sampleTypes {
		if str(st[0]) != wantTypes[i][0] || str(st[1]) != wantTypes[i][1] {
			t.Fatalf("sample type %d = %s/%s, want %s/%s",
				i, str(st[0]), str(st[1]), wantTypes[i][0], wantTypes[i][1])
		}
	}
	if str(d.defaultType) != "sim_time" {
		t.Fatalf("default sample type %q, want sim_time", str(d.defaultType))
	}
	if d.duration != 80 {
		t.Fatalf("duration %d, want the 80ns elapsed sim-time", d.duration)
	}

	// (stack, [events, simNs, wallNs]) triples expected from the schedule.
	want := map[string][3]uint64{
		"engine":                {1, 20 + 30, 0}, // unscoped event + RunUntil tail
		"engine;port:x":         {1, 10, 0},
		"engine;port:x;sched:y": {1, 20, 0},
	}
	if len(d.samples) != len(want) {
		t.Fatalf("%d samples, want %d", len(d.samples), len(want))
	}
	var totalEvents, totalSim uint64
	for _, s := range d.samples {
		names := d.stackNames(t, s.locs)
		key := ""
		for i, n := range names {
			if i > 0 {
				key += ";"
			}
			key += n
		}
		w, ok := want[key]
		if !ok {
			t.Fatalf("unexpected sample stack %q", key)
		}
		if len(s.values) != 3 || [3]uint64(s.values) != w {
			t.Fatalf("stack %q values %v, want %v", key, s.values, w)
		}
		totalEvents += s.values[0]
		totalSim += s.values[1]
		delete(want, key)
	}
	if totalEvents != eng.Executed || totalSim != uint64(eng.Now()) {
		t.Fatalf("sample totals events=%d sim=%d, want %d/%d",
			totalEvents, totalSim, eng.Executed, uint64(eng.Now()))
	}
}

// TestPprofDeterministic pins byte-identical exports across two identical
// runs: the CI profile-smoke job diffs folded outputs across runs, and
// that only holds if nothing about the encoding depends on map order or
// wall state.
func TestPprofDeterministic(t *testing.T) {
	render := func() ([]byte, []byte) {
		p := miniRun(New(Config{}))
		var pb, folded bytes.Buffer
		if err := p.WritePprof(&pb); err != nil {
			t.Fatalf("WritePprof: %v", err)
		}
		if err := p.WriteFolded(&folded); err != nil {
			t.Fatalf("WriteFolded: %v", err)
		}
		return pb.Bytes(), folded.Bytes()
	}
	pb1, f1 := render()
	pb2, f2 := render()
	if !bytes.Equal(pb1, pb2) {
		t.Fatal("two identical runs produced different pprof bytes")
	}
	if !bytes.Equal(f1, f2) {
		t.Fatal("two identical runs produced different folded bytes")
	}
}
