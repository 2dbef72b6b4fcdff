package digest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"testing"
)

// oracleWriteJSONL is WriteJSONL as it was over a store of Record
// structs: every line, header included, through json.Encoder. The
// column writer must match it byte for byte.
func oracleWriteJSONL(w io.Writer, tl *Timeline) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	hex := func(v uint64) string { return fmt.Sprintf("%016x", v) }
	if err := enc.Encode(lineJSON{Fingerprint: true, Seed: hex(tl.Seed), EpochNs: tl.EpochNs}); err != nil {
		return err
	}
	for _, rec := range tl.Records {
		if err := enc.Encode(lineJSON{
			Scope: rec.Scope, Epoch: rec.Epoch, At: rec.At,
			Component: rec.Component.String(), Label: rec.Label,
			Digest: hex(rec.Digest),
		}); err != nil {
			return err
		}
	}
	for _, f := range tl.Fine {
		if err := enc.Encode(lineJSON{
			Fine: true, Scope: f.Scope, Event: f.Event, At: f.At,
			Digest: hex(f.Digest),
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FuzzReadTimeline feeds arbitrary bytes to the timeline reader. It must
// never panic, and whatever it accepts must survive the JSONL writer and
// ReadTimeline unchanged. A parsed timeline can hold records no recorder
// would make (any scope, any epoch order), so it is written back with
// the oracle writer, which FuzzRecorderStore holds WriteJSONL to.
func FuzzReadTimeline(f *testing.F) {
	rec := New(Config{Seed: 5, EpochNs: 500, Fine: true})
	sc := rec.ScopeFor("eng")
	sc.Register(ComponentEngine, "engine", &counter{n: 3})
	sc.Register(ComponentTDigest, "fct", &blob{strs: []string{"x"}})
	sc.FineSnapshot(1, 10)
	sc.Snapshot(500)
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("\n" + `{"scope":"cell0","epoch":0,"at_ns":0,"component":"engine","digest":"00000000000000aa"}` + "\n"))
	f.Add([]byte("\n\n"))
	f.Add([]byte(`{"fingerprint":true,"seed":"zz"}`))
	f.Add([]byte(`{"fingerprint":true,"seed":"1"}` + "\nnull\n[]\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tl, err := ReadTimeline(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := oracleWriteJSONL(&buf, tl); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTimeline(&buf)
		if err != nil {
			t.Fatalf("re-reading written timeline: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(tl, back) {
			t.Fatalf("round trip changed the timeline:\n%+v\n%+v", tl, back)
		}
	})
}
