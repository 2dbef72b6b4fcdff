package sim

import (
	"slices"
	"sort"
	"testing"
)

// The engine's contract is the (at, seq) total order: events fire by time,
// and in scheduling order within one instant. refModel states that
// contract as plainly as possible — a slice of pending entries kept sorted
// by (at, seq) — and shares no code with the timing wheel. refHarness
// drives an engine and the model in lockstep through randomized
// schedule/cancel/stop/run streams with same-tick bursts, cascade-crossing
// horizons, and beyond-horizon spills: every engine callback must be the
// model's next due entry, and after every op the engine's observable
// state must equal the model's.

// refEntry is one pending event of the reference model.
type refEntry struct {
	at  Time
	seq uint64
	tag int64
}

// refModel mirrors At/AtArg, Cancel, Stop, and Run/RunUntil.
type refModel struct {
	now       Time
	seq       uint64
	pending   []refEntry // sorted by (at, seq)
	executed  uint64
	canceled  uint64
	highWater int
	stopped   bool
}

// at schedules tag at t and returns its seq, the model's event reference.
// The new seq is the largest yet, so it sorts after every entry at t.
func (m *refModel) at(t Time, tag int64) uint64 {
	i := sort.Search(len(m.pending), func(i int) bool { return m.pending[i].at > t })
	m.pending = slices.Insert(m.pending, i, refEntry{t, m.seq, tag})
	m.seq++
	m.highWater = max(m.highWater, len(m.pending))
	return m.seq - 1
}

// cancel removes the entry scheduled as seq; a fired or already-canceled
// (stale) reference is a no-op.
func (m *refModel) cancel(seq uint64) {
	if i := slices.IndexFunc(m.pending, func(p refEntry) bool { return p.seq == seq }); i >= 0 {
		m.pending = slices.Delete(m.pending, i, i+1)
		m.canceled++
	}
}

// pop fires the earliest entry due by deadline, unless the run stopped.
func (m *refModel) pop(deadline Time) (refEntry, bool) {
	if m.stopped || len(m.pending) == 0 || m.pending[0].at > deadline {
		return refEntry{}, false
	}
	ent := m.pending[0]
	m.pending = slices.Delete(m.pending, 0, 1)
	m.now = ent.at
	m.executed++
	return ent, true
}

// endRun mirrors RunUntil's exit: the clock advances to a finite deadline
// unless the run was stopped.
func (m *refModel) endRun(deadline Time) {
	if deadline != MaxTime && m.now < deadline && !m.stopped {
		m.now = deadline
	}
}

// pendSum recomputes the engine's pending accumulator from scratch.
func (m *refModel) pendSum() uint64 {
	var s uint64
	for _, p := range m.pending {
		s += pendMix(p.at, p.seq)
	}
	return s
}

// refRef pairs an engine reference with the model's reference to the same
// event.
type refRef struct {
	ev  EventRef
	seq uint64
}

// refHarness runs an engine and a refModel in lockstep. Every schedule,
// cancel, stop, and run goes to both; onFire is the workload body each
// callback runs after its firing has been checked against the model.
type refHarness struct {
	t        testing.TB
	e        *Engine
	m        refModel
	refs     []refRef // indexed by tag
	deadline Time     // of the RunUntil in progress
	fire     func(any)
	onFire   func(h *refHarness, tag int64)
}

func newRefHarness(t testing.TB, onFire func(h *refHarness, tag int64)) *refHarness {
	h := &refHarness{t: t, e: NewEngine(), onFire: onFire}
	h.fire = func(v any) {
		tag := v.(int64)
		want, ok := h.m.pop(h.deadline)
		if !ok {
			h.t.Fatalf("engine fired tag %d at %v; the model has nothing due", tag, h.e.Now())
		}
		if want.tag != tag || want.at != h.e.Now() {
			h.t.Fatalf("engine fired tag %d at %v; the model's next is tag %d at %v",
				tag, h.e.Now(), want.tag, want.at)
		}
		h.checkPending()
		if h.onFire != nil {
			h.onFire(h, tag)
		}
	}
	return h
}

// after schedules the next tag d from now on both sides.
func (h *refHarness) after(d Time) {
	tag := int64(len(h.refs))
	at := h.e.Now() + d
	h.refs = append(h.refs, refRef{h.e.AtArg(at, h.fire, tag), h.m.at(at, tag)})
}

// cancel cancels the event scheduled with tag i, which may be stale.
func (h *refHarness) cancel(i int) {
	h.e.Cancel(h.refs[i].ev)
	h.m.cancel(h.refs[i].seq)
}

func (h *refHarness) stop() {
	h.e.Stop()
	h.m.stopped = true
}

// runUntil runs both sides to deadline, then checks the engine left no
// due event behind and agrees with the model on everything observable.
func (h *refHarness) runUntil(deadline Time) {
	h.deadline = deadline
	h.m.stopped = false
	before := h.m.executed
	n := h.e.RunUntil(deadline)
	if !h.m.stopped && len(h.m.pending) > 0 && h.m.pending[0].at <= deadline {
		h.t.Fatalf("RunUntil(%v) returned with tag %d at %v still due",
			deadline, h.m.pending[0].tag, h.m.pending[0].at)
	}
	if n != h.m.executed-before {
		h.t.Fatalf("RunUntil(%v) reported %d events, the model fired %d", deadline, n, h.m.executed-before)
	}
	h.m.endRun(deadline)
	h.check()
}

// checkPending compares the pending set's size and accumulator.
func (h *refHarness) checkPending() {
	h.t.Helper()
	if got, want := h.e.Len(), len(h.m.pending); got != want {
		h.t.Fatalf("Len() = %d, model has %d pending", got, want)
	}
	if got, want := h.e.pendSum, h.m.pendSum(); got != want {
		h.t.Fatalf("pendSum = %016x, model's pending set sums to %016x", got, want)
	}
}

// check compares every observable counter; call it between ops.
func (h *refHarness) check() {
	h.t.Helper()
	h.checkPending()
	e, m := h.e, &h.m
	if e.Now() != m.now {
		h.t.Fatalf("Now() = %v, model %v", e.Now(), m.now)
	}
	if e.Executed != m.executed {
		h.t.Fatalf("Executed = %d, model %d", e.Executed, m.executed)
	}
	if e.Canceled() != m.canceled {
		h.t.Fatalf("Canceled() = %d, model %d", e.Canceled(), m.canceled)
	}
	if e.PendingHighWater() != m.highWater {
		h.t.Fatalf("PendingHighWater() = %d, model %d", e.PendingHighWater(), m.highWater)
	}
	if e.Scheduled() != m.seq {
		h.t.Fatalf("Scheduled() = %d, model %d", e.Scheduled(), m.seq)
	}
}

// drain runs both sides until nothing is pending; stops only pause it.
func (h *refHarness) drain() {
	for len(h.m.pending) > 0 {
		h.runUntil(MaxTime)
	}
	if h.e.Len() != 0 {
		h.t.Fatalf("engine holds %d events after the model drained", h.e.Len())
	}
}

// equivMix derives per-event deterministic "randomness" from the event's
// tag, so decisions made inside callbacks depend on nothing but which
// event fired.
func equivMix(tag int64) uint64 {
	x := uint64(tag) * 0x9E3779B97F4A7C15
	x ^= x >> 32
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 32
	return x
}

// equivDeltas are the horizon buckets a schedule op draws from: same tick,
// sub-slot, level-0 direct, level-1, level-2, level-3, and past the wheel
// horizon (spill list).
var equivDeltas = [...]Time{
	0,
	1,
	50,
	5 * Microsecond,
	500 * Microsecond,
	50 * Millisecond,
	20 * Second,
	Time(1) << 41,
	Time(1) << 45,
}

// refWorkload is the callback body of the property and fuzz tests. A third
// of events schedule a follow-up (a ninth of those at the same instant,
// extending the run in progress), some cancel an arbitrary ref — often
// stale, which must be harmless — and some stop the run, leaving the
// wheel to requeue a detached remainder behind any same-instant events
// scheduled before the stop.
func refWorkload(h *refHarness, tag int64) {
	m := equivMix(tag)
	if m%3 == 0 {
		h.after(equivDeltas[(m>>8)%uint64(len(equivDeltas))])
	}
	if m%7 == 0 {
		h.cancel(int((m >> 16) % uint64(len(h.refs))))
	}
	if m%11 == 0 {
		h.stop()
	}
}

// TestEngineMatchesReference is the property test: across seeds, pseudo-
// random op streams keep the engine in lockstep with the reference model.
func TestEngineMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		h := newRefHarness(t, refWorkload)
		r := NewRand(seed)
		for i := 0; i < 2000; i++ {
			switch c := r.Range(0, 100); {
			case c < 55:
				h.after(equivDeltas[r.Range(0, len(equivDeltas)-1)])
			case c < 65:
				// Same-tick burst: several events at one instant
				// exercise the same-instant run drain.
				d := equivDeltas[r.Range(0, len(equivDeltas)-1)]
				for k := r.Range(2, 6); k > 0; k-- {
					h.after(d)
				}
			case c < 80:
				if len(h.refs) > 0 {
					h.cancel(r.Range(0, len(h.refs)-1))
				}
			default:
				h.runUntil(h.e.Now() + Time(r.Range(0, int(2*Millisecond))))
			}
			h.check()
		}
		h.drain()
		if h.m.executed == 0 {
			t.Fatalf("seed %d: workload fired no events", seed)
		}
	}
}

// TestEngineMatchesReferenceStop pins the mid-run Stop path: a callback
// schedules a same-instant event and stops the engine, so the wheel
// requeues the rest of its detached run behind that newer event. The
// remainder must still fire first (smaller seq), and the clock must not
// jump to the deadline of the stopped run.
func TestEngineMatchesReferenceStop(t *testing.T) {
	const stopTag = 5
	h := newRefHarness(t, func(h *refHarness, tag int64) {
		if tag == stopTag {
			h.after(0)
			h.stop()
		}
	})
	for i := 0; i < 10; i++ {
		h.after(10 * Nanosecond) // tags 0..9, stopTag among them
	}
	h.after(20 * Nanosecond)
	h.runUntil(15 * Nanosecond)
	if h.e.Now() != 10*Nanosecond || h.e.Executed != stopTag+1 {
		t.Fatalf("stopped run left now=%v executed=%d, want 10ns and %d", h.e.Now(), h.e.Executed, stopTag+1)
	}
	h.after(0)
	h.drain()
	if h.e.Executed != 13 {
		t.Fatalf("executed %d events, want 13", h.e.Executed)
	}
}

// FuzzEngineReference interprets the fuzz input as an op stream and runs
// it in lockstep with the reference model. Each byte pair is one op:
// schedule at one of the delta buckets, cancel a ref, or run a bounded
// chunk; callbacks run refWorkload.
func FuzzEngineReference(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x22, 0x53, 0x84, 0xb5, 0xe6, 0x17, 0x48, 0x79})
	f.Add([]byte{0xff, 0xfe, 0xfd, 0xfc, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0x10, 0x90, 0x20, 0xa0, 0x30, 0xb0, 0x40, 0xc0, 0x50, 0xd0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		h := newRefHarness(t, refWorkload)
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 4 {
			case 0, 1:
				h.after(equivDeltas[int(arg)%len(equivDeltas)])
			case 2:
				if len(h.refs) > 0 {
					h.cancel(int(arg) % len(h.refs))
				}
			case 3:
				h.runUntil(h.e.Now() + Time(arg)*Microsecond)
			}
			h.check()
		}
		h.drain()
	})
}
