package digest

import (
	"bytes"
	"slices"
	"testing"
)

// recordOracle is the epoch store as it was before the columns: one
// Record struct appended per chain digest, with the digests from
// streamOracle. The recorder's Records view and WriteJSONL must match it
// exactly.
type recordOracle struct {
	scopes  []*oracleScope
	records []Record
}

// oracleScope is one scope's identity table and digest chains.
type oracleScope struct {
	label  string
	kinds  []Component
	labels []string
	stream *streamOracle
	epoch  int64
}

func (o *recordOracle) snapshot(i int, at int64) {
	s := o.scopes[i]
	for j, d := range s.stream.snapshot() {
		o.records = append(o.records, Record{
			Scope: s.label, Epoch: s.epoch, At: at,
			Component: s.kinds[j], Label: s.labels[j], Digest: d,
		})
	}
	s.epoch++
}

// compSpec is one component a store test registers.
type compSpec struct {
	kind  Component
	label string
}

// storeRig drives a recorder's scopes and the oracle over the same
// counters and compares the two stores on demand.
type storeRig struct {
	t      testing.TB
	rec    *Recorder
	scopes []*Scope
	comps  [][]*counter
	or     recordOracle
	at     int64
}

func newStoreRig(t testing.TB, cfg Config, specs ...[]compSpec) *storeRig {
	r := &storeRig{t: t, rec: New(cfg)}
	for i, spec := range specs {
		sc := r.rec.ScopeFor(i)
		os := &oracleScope{label: sc.Label()}
		var ds []Digestable
		var cs []*counter
		for _, c := range spec {
			ctr := &counter{n: int64(len(cs))}
			sc.Register(c.kind, c.label, ctr)
			os.kinds = append(os.kinds, c.kind)
			os.labels = append(os.labels, c.label)
			ds = append(ds, ctr)
			cs = append(cs, ctr)
		}
		os.stream = newStreamOracle(r.rec.Seed(), ds...)
		r.scopes = append(r.scopes, sc)
		r.comps = append(r.comps, cs)
		r.or.scopes = append(r.or.scopes, os)
	}
	return r
}

// snap changes scope i's state and snapshots it in both stores; inside
// the fine bracket it also takes a fine snapshot.
func (r *storeRig) snap(i int) {
	r.at += 1000
	for j, c := range r.comps[i] {
		c.n += int64(j + 1)
	}
	r.scopes[i].FineSnapshot(uint64(r.at), r.at)
	r.scopes[i].Snapshot(r.at)
	r.or.snapshot(i, r.at)
}

// checkRecords compares the Records view with the oracle's records.
func (r *storeRig) checkRecords() {
	r.t.Helper()
	if got, want := r.rec.Records(), r.or.records; !slices.Equal(got, want) {
		r.t.Fatalf("Records view differs from the oracle after %d snapshots:\n got %+v\nwant %+v",
			len(r.rec.snaps), got, want)
	}
}

// checkJSONL compares WriteJSONL's bytes with the oracle writer's over
// the oracle's records and the recorder's fine records.
func (r *storeRig) checkJSONL() {
	r.t.Helper()
	var got, want bytes.Buffer
	if err := r.rec.WriteJSONL(&got); err != nil {
		r.t.Fatal(err)
	}
	tl := &Timeline{Seed: r.rec.Seed(), EpochNs: r.rec.EpochNs(), Records: r.or.records, Fine: r.rec.FineRecords()}
	if err := oracleWriteJSONL(&want, tl); err != nil {
		r.t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		r.t.Fatalf("WriteJSONL differs from the oracle writer:\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}
}

// oddLabels are component labels whose JSON encoding is not their bytes:
// HTML-escaped characters, quotes and backslashes, control characters,
// invalid UTF-8, and the JavaScript line separators.
var oddLabels = []string{"", "sw.p0", `a"b\c`, "<p>&amp;", "tab\there\n", "\x00\x1f", "bad\xffutf8", "ls\u2028ps\u2029", "ünï"}

func TestRecordsViewInterleavedScopes(t *testing.T) {
	// RecordCap 3 makes both columns grow several times over the run.
	r := newStoreRig(t, Config{Seed: 4, EpochNs: 1000, RecordCap: 3, Fine: true},
		[]compSpec{{ComponentEngine, "engine"}, {ComponentPort, "<sw.p0>"}},
		[]compSpec{{ComponentRand, "flows"}, {ComponentTDigest, ""}, {ComponentLedger, `l"&`}})
	// A, B, A, A, B, with the view built mid-run and extended after.
	r.snap(0)
	r.snap(1)
	r.checkRecords()
	r.checkJSONL()
	r.snap(0)
	r.snap(0)
	r.checkRecords()
	r.snap(1)
	r.checkRecords()
	r.checkJSONL()
	if got, want := r.rec.Timeline().Records, r.or.records; !slices.Equal(got, want) {
		t.Fatalf("Timeline records differ from the oracle:\n got %+v\nwant %+v", got, want)
	}
	if len(r.rec.FineRecords()) == 0 {
		t.Fatal("no fine records in the bracket: the JSONL check did not cover them")
	}
}

func TestJSONLOddLabels(t *testing.T) {
	var spec []compSpec
	for i, l := range oddLabels {
		spec = append(spec, compSpec{Component(i % int(numComponents)), l})
	}
	r := newStoreRig(t, Config{Seed: 11}, spec)
	for i := 0; i < 3; i++ {
		r.snap(0)
	}
	r.checkJSONL()
	r.checkRecords()
}

func TestRecordsRepeatZeroAlloc(t *testing.T) {
	r := newStoreRig(t, Config{}, []compSpec{{ComponentEngine, "engine"}, {ComponentPort, "p"}})
	for i := 0; i < 10; i++ {
		r.snap(0)
	}
	r.checkRecords()
	allocs := testing.AllocsPerRun(100, func() { _ = r.rec.Records() })
	if allocs != 0 { //tcnlint:floatexact AllocsPerRun of a zero-alloc run is exactly 0
		t.Fatalf("Records with no new snapshots allocates: %v allocs/op", allocs)
	}
}

// FuzzRecorderStore builds one to three scopes of zero to three
// components with odd labels, snapshots them in the order the ops give,
// and compares the Records view with the oracle wherever an op asks and
// the JSONL export at the end. A small RecordCap makes the columns grow
// mid-run.
func FuzzRecorderStore(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 0x80, 0, 0, 0x81})
	f.Add(uint64(2), []byte{0x80, 0x81, 0x82, 2, 1, 0, 0x80})
	f.Add(uint64(3), []byte{})
	f.Fuzz(func(t *testing.T, shape uint64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		rng := &splitmix{shape}
		specs := make([][]compSpec, 1+rng.Intn(3))
		for i := range specs {
			for j := rng.Intn(4); j > 0; j-- {
				specs[i] = append(specs[i], compSpec{
					Component(rng.Intn(int(numComponents))),
					oddLabels[rng.Intn(len(oddLabels))],
				})
			}
		}
		cfg := Config{Seed: shape, RecordCap: 1 + rng.Intn(8), Fine: rng.Intn(2) == 0, FineAtEpoch: int64(rng.Intn(3))}
		r := newStoreRig(t, cfg, specs...)
		for _, op := range ops {
			r.snap(int(op&0x7f) % len(specs))
			if op&0x80 != 0 {
				r.checkRecords()
			}
		}
		r.checkJSONL()
		r.checkRecords()
	})
}
