package digest

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadTimeline feeds arbitrary bytes to the timeline reader. It must
// never panic, and whatever it accepts must survive WriteJSONL →
// ReadTimeline unchanged.
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
		out := &Recorder{cfg: Config{Seed: tl.Seed, EpochNs: tl.EpochNs}, records: tl.Records, fine: tl.Fine}
		var buf bytes.Buffer
		if err := out.WriteJSONL(&buf); err != nil {
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
