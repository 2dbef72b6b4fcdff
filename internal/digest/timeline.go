package digest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Timeline is a parsed fingerprint stream: the header parameters plus the
// epoch and fine records in file order. Two timelines are comparable only
// when their seeds and epoch periods match.
type Timeline struct {
	Seed    uint64
	EpochNs int64
	Records []Record
	Fine    []FineRecord
}

// lineJSON is the single JSONL wire form: the header line sets
// "fingerprint":true, fine records set "fine":true, everything else is an
// epoch record. Digests travel as 16-hex-digit strings — JSON numbers
// cannot carry a uint64 exactly.
type lineJSON struct {
	Fingerprint bool   `json:"fingerprint,omitempty"`
	Seed        string `json:"seed,omitempty"`
	EpochNs     int64  `json:"epoch_ns,omitempty"`

	Fine  bool   `json:"fine,omitempty"`
	Event uint64 `json:"event,omitempty"`

	Scope     string `json:"scope,omitempty"`
	Epoch     int64  `json:"epoch"`
	At        int64  `json:"at_ns"`
	Component string `json:"component,omitempty"`
	Label     string `json:"label,omitempty"`
	Digest    string `json:"digest,omitempty"`
}

// hex64 renders a digest as a fixed-width hex string.
func hex64(v uint64) string { return string(appendHex64(nil, v)) }

// parseHex64 inverts hex64.
func parseHex64(s string) (uint64, error) { return strconv.ParseUint(s, 16, 64) }

// WriteJSONL streams the timeline: one header line, every epoch record in
// snapshot order, then every fine record. Append order is deterministic
// (cells run serially under a recorder, snapshots fire on the sim clock),
// so two identical runs export identical bytes. Epoch records are
// rendered straight from the epoch store, never through the Records
// view: each line is its scope's and component's pre-encoded JSON
// fragments around the epoch, time and digest, byte for byte what
// encoding/json writes for lineJSON.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	hdr := lineJSON{Fingerprint: true, Seed: hex64(r.cfg.Seed), EpochNs: r.cfg.EpochNs}
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	frags := make([]scopeJSON, len(r.scopes))
	for i, s := range r.scopes {
		frags[i] = newScopeJSON(s)
	}
	var line []byte
	d := 0
	for _, sn := range r.snaps {
		f := &frags[sn.scope]
		for _, tail := range f.tails {
			line = append(line[:0], f.head...)
			line = strconv.AppendInt(line, sn.epoch, 10)
			line = append(line, `,"at_ns":`...)
			line = strconv.AppendInt(line, sn.at, 10)
			line = append(line, tail...)
			line = appendHex64(line, r.digests[d])
			line = append(line, "\"}\n"...)
			if _, err := bw.Write(line); err != nil {
				return err
			}
			d++
		}
	}
	for _, f := range r.fine {
		if err := enc.Encode(lineJSON{
			Fine: true, Scope: f.Scope, Event: f.Event, At: f.At,
			Digest: hex64(f.Digest),
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// scopeJSON holds one scope's epoch-record line fragments: head runs
// from the line's opening brace to the epoch value, and tails[i] from
// after the time value to the opening quote of component i's digest.
type scopeJSON struct {
	head  []byte
	tails [][]byte
}

// newScopeJSON pre-encodes s's fragments with encoding/json's string
// encoder (HTML-safe escaping, as json.Encoder writes lineJSON), keeping
// lineJSON's field order and omitempty rules. Scope labels and component
// names are never empty; component labels may be.
func newScopeJSON(s *Scope) scopeJSON {
	f := scopeJSON{head: append(appendJSONField([]byte("{"), "scope", s.label), `,"epoch":`...)}
	for _, c := range s.comps {
		tail := appendJSONField([]byte(","), "component", c.kind.String())
		if c.label != "" {
			tail = appendJSONField(append(tail, ','), "label", c.label)
		}
		f.tails = append(f.tails, append(tail, `,"digest":"`...))
	}
	return f
}

// appendJSONField appends "key":value with value JSON-encoded.
func appendJSONField(b []byte, key, value string) []byte {
	v, _ := json.Marshal(value) // a string always marshals
	b = append(b, '"')
	b = append(b, key...)
	b = append(b, `":`...)
	return append(b, v...)
}

// appendHex64 appends v as 16 lower-case hex digits.
func appendHex64(b []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[v>>uint(shift)&0xf])
	}
	return b
}

// ReadTimeline parses a fingerprint JSONL stream written by WriteJSONL.
// Blank lines are skipped; the first other line must be the header, and
// no later line may be one.
func ReadTimeline(r io.Reader) (*Timeline, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	tl := &Timeline{}
	line := 0
	header := false
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var l lineJSON
		if err := json.Unmarshal(raw, &l); err != nil {
			return nil, fmt.Errorf("digest: line %d: %w", line, err)
		}
		switch {
		case !header:
			if !l.Fingerprint {
				return nil, fmt.Errorf("digest: not a fingerprint stream (line %d is not the header line)", line)
			}
			seed, err := parseHex64(l.Seed)
			if err != nil {
				return nil, fmt.Errorf("digest: line %d: bad seed %q", line, l.Seed)
			}
			tl.Seed = seed
			tl.EpochNs = l.EpochNs
			header = true
		case l.Fingerprint:
			return nil, fmt.Errorf("digest: line %d: repeated header line", line)
		case l.Fine:
			d, err := parseHex64(l.Digest)
			if err != nil {
				return nil, fmt.Errorf("digest: line %d: bad digest %q", line, l.Digest)
			}
			tl.Fine = append(tl.Fine, FineRecord{Scope: l.Scope, Event: l.Event, At: l.At, Digest: d})
		default:
			c, ok := ParseComponent(l.Component)
			if !ok {
				return nil, fmt.Errorf("digest: line %d: unknown component %q", line, l.Component)
			}
			d, err := parseHex64(l.Digest)
			if err != nil {
				return nil, fmt.Errorf("digest: line %d: bad digest %q", line, l.Digest)
			}
			tl.Records = append(tl.Records, Record{
				Scope: l.Scope, Epoch: l.Epoch, At: l.At,
				Component: c, Label: l.Label, Digest: d,
			})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !header {
		return nil, fmt.Errorf("digest: empty fingerprint stream (no header line)")
	}
	return tl, nil
}
