// Package digest is the run-fingerprinting layer: a seeded, allocation-
// free rolling hash over fixed-width state fields, a Digestable interface
// the simulator's stateful components implement, and a Recorder that
// snapshots per-component digest chains at sim-time epochs so two
// executions can be compared and their first divergence localized to an
// (epoch, component, event index) triple.
//
// The package is a leaf: it imports nothing from the rest of the module,
// so sim, queue, qdisc, fabric, sched, trace, and metrics can all
// implement Digestable without a cycle. Sim-time values are hashed as
// int64 nanoseconds; the engine-facing scheduling of epoch snapshots
// lives with the caller (internal/experiments wires the tickers).
//
// Determinism contract: a digest is a pure function of the seed and the
// exact sequence of Write calls. Floats are canonicalized before hashing
// (negative zero folds into positive zero, every NaN payload folds into
// one bit pattern) so semantically equal states cannot hash apart; no
// state is ever rendered through text, and no map is ever ranged.
package digest

import (
	"encoding/binary"
	"math"
)

// FNV-1a 64-bit parameters. FNV over fixed-width little-endian fields is
// fast, allocation-free, and has no data-dependent branching — exactly
// what a per-epoch (and, in fine mode, per-event) state hash needs. The
// digest detects divergence between two runs of trusted code; it is not a
// cryptographic commitment.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// canonicalNaN is the single bit pattern every NaN hashes as.
var canonicalNaN = math.Float64bits(math.NaN())

// Hash is an incremental FNV-1a 64-bit hash over fixed-width fields. The
// zero value is NOT ready to use; start with NewHash so the seed is part
// of every digest. Hash is a plain value: embed it, reuse it, never share
// it across goroutines mid-write.
//
// A Hash handed to DigestState by a Scope is in collect mode: its writes
// append the very bytes they would fold (little-endian fields, length-
// prefixed strings) to the scope's buffer, and the scope hashes that byte
// stream itself (see memo.go). Either way the digest is FNV-1a over the
// same bytes in the same order, so implementations cannot tell the modes
// apart — and must not call Sum64.
type Hash struct {
	h   uint64
	buf []byte // collect mode when non-nil: the bytes written so far
}

// NewHash returns a hash primed with the recorder seed. Distinct seeds
// yield unrelated digest timelines, so two recorders cannot be compared
// across a seed change by accident (the diff engine checks).
func NewHash(seed uint64) Hash {
	h := Hash{h: fnvOffset64}
	h.WriteUint64(seed)
	return h
}

// WriteUint64 folds one 64-bit field into the digest, little-endian
// byte by byte (fixed width: writing 1 then 2 differs from writing 513).
func (h *Hash) WriteUint64(v uint64) {
	if h.buf != nil {
		h.buf = binary.LittleEndian.AppendUint64(h.buf, v)
		return
	}
	x := h.h
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= fnvPrime64
		v >>= 8
	}
	h.h = x
}

// WriteInt64 folds one signed 64-bit field into the digest.
func (h *Hash) WriteInt64(v int64) { h.WriteUint64(uint64(v)) }

// WriteInt folds one machine int into the digest at a fixed 64-bit width,
// so 32- and 64-bit platforms produce identical digests.
func (h *Hash) WriteInt(v int) { h.WriteUint64(uint64(int64(v))) }

// WriteBool folds one flag into the digest.
func (h *Hash) WriteBool(v bool) {
	var b uint64
	if v {
		b = 1
	}
	h.WriteUint64(b)
}

// WriteFloat64 folds one float into the digest by bit pattern, after
// canonicalization: negative zero hashes as positive zero (they compare
// equal, so they must digest equal) and every NaN hashes as one pattern.
// Floats are never formatted as text — the bit pattern is the state.
func (h *Hash) WriteFloat64(v float64) {
	b := math.Float64bits(v)
	if math.IsNaN(v) {
		b = canonicalNaN
	} else if v == 0 { //tcnlint:floatexact canonicalization: -0 and +0 compare equal so they must digest equal
		b = 0
	}
	h.WriteUint64(b)
}

// WriteString folds a label into the digest, length-prefixed so
// ("ab","c") and ("a","bc") digest apart. Labels are cold-path identity,
// not per-event state; Snapshot does not call this on the hot path.
func (h *Hash) WriteString(s string) {
	h.WriteInt(len(s))
	if h.buf != nil {
		//tcnlint:hotpath collect buffer is reused; it grows only past every earlier snapshot's size
		h.buf = append(h.buf, s...)
		return
	}
	for i := 0; i < len(s); i++ {
		h.h ^= uint64(s[i])
		h.h *= fnvPrime64
	}
}

// Sum64 returns the current digest. The hash remains usable; further
// writes keep folding.
func (h *Hash) Sum64() uint64 { return h.h }
