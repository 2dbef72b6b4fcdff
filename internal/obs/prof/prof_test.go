package prof

import (
	"bytes"
	"strings"
	"testing"

	"tcn/internal/digest"
	"tcn/internal/sim"
)

// digestOf folds the deterministic plane into one comparable value.
func digestOf(p *Profiler) uint64 {
	h := digest.NewHash(0)
	p.DigestState(&h)
	return h.Sum64()
}

// foldedOf renders the folded export as a string.
func foldedOf(t *testing.T, p *Profiler) string {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteFolded(&buf); err != nil {
		t.Fatalf("WriteFolded: %v", err)
	}
	return buf.String()
}

// TestSimTimeTotalsPartitionElapsed pins the acceptance contract: after
// FinishEngine, the per-node sim-time totals sum exactly to the engine's
// elapsed sim-time, and the event totals to the executed count —
// including the tail the clock advances past the last event.
func TestSimTimeTotalsPartitionElapsed(t *testing.T) {
	p := New(Config{})
	eng := sim.NewEngine()
	p.AttachEngine(eng)
	a := p.NewScope("port:a")
	b := p.NewScope("sched:b")

	eng.At(10*sim.Nanosecond, func() { a.Enter(); p.Exit() })
	eng.At(25*sim.Nanosecond, func() { a.Enter(); b.Enter(); p.Exit(); p.Exit() })
	eng.At(40*sim.Nanosecond, func() {}) // unscoped: engine-owned
	eng.RunUntil(100 * sim.Nanosecond)   // deadline past the last event: 60 ns tail
	p.FinishEngine(eng)

	events, simNs := p.Totals()
	if events != eng.Executed {
		t.Fatalf("event total %d, want executed count %d", events, eng.Executed)
	}
	if simNs != int64(eng.Now()) {
		t.Fatalf("sim-time total %d, want elapsed %d", simNs, int64(eng.Now()))
	}
	// FinishEngine is idempotent: a second call must not double the tail.
	p.FinishEngine(eng)
	if _, again := p.Totals(); again != simNs {
		t.Fatalf("FinishEngine not idempotent: %d then %d", simNs, again)
	}
}

// TestOwnerIsDeepestScope pins the attribution rule: an event belongs to
// the deepest scope it reached, ties going to the first reached.
func TestOwnerIsDeepestScope(t *testing.T) {
	p := New(Config{})
	eng := sim.NewEngine()
	p.AttachEngine(eng)
	a := p.NewScope("a")
	b := p.NewScope("b")
	c := p.NewScope("c")

	// Nested: deepest node (b under a) owns the event even though the
	// stack unwound before the event ended.
	eng.At(10*sim.Nanosecond, func() { a.Enter(); b.Enter(); p.Exit(); p.Exit() })
	// Tie at depth 1: a entered before c, so a owns it.
	eng.At(20*sim.Nanosecond, func() { a.Enter(); p.Exit(); c.Enter(); p.Exit() })
	eng.RunUntil(20 * sim.Nanosecond)
	p.FinishEngine(eng)

	folded := foldedOf(t, p)
	want := "engine;a 1\nengine;a;b 1\n"
	if folded != want {
		t.Fatalf("folded output:\n%s\nwant:\n%s", folded, want)
	}
}

// TestStrayExitStaysAtRoot pins the self-healing root: an unbalanced Exit
// neither panics nor corrupts later attribution.
func TestStrayExitStaysAtRoot(t *testing.T) {
	p := New(Config{})
	eng := sim.NewEngine()
	p.AttachEngine(eng)
	a := p.NewScope("a")
	eng.At(5*sim.Nanosecond, func() { p.Exit(); p.Exit(); a.Enter(); p.Exit() })
	eng.RunUntil(5 * sim.Nanosecond)
	p.FinishEngine(eng)
	if folded := foldedOf(t, p); folded != "engine;a 1\n" {
		t.Fatalf("folded output after stray exits:\n%s", folded)
	}
}

// miniRun drives a fixed little simulation through a profiler and returns
// it. Identical calls must produce identical deterministic planes.
func miniRun(p *Profiler) *Profiler {
	eng := sim.NewEngine()
	p.AttachEngine(eng)
	port := p.NewScope("port:x")
	sch := p.NewScope("sched:y")
	var tick func()
	n := 0
	tick = func() {
		port.Enter()
		if n%2 == 0 {
			sch.Enter()
			p.Exit()
		}
		p.Exit()
		n++
		if n < 64 {
			eng.After(7*sim.Nanosecond, tick)
		}
	}
	eng.After(0*sim.Nanosecond, tick)
	eng.RunUntil(1000 * sim.Nanosecond)
	p.FinishEngine(eng)
	return p
}

// TestDigestDeterministicAndWallExcluded runs the same simulation twice —
// once per plane configuration — and requires identical digests: the
// deterministic plane is a pure function of the event history, and wall
// self-time never reaches the digest even when sampled.
func TestDigestDeterministicAndWallExcluded(t *testing.T) {
	bare1 := miniRun(New(Config{}))
	bare2 := miniRun(New(Config{}))
	if digestOf(bare1) != digestOf(bare2) {
		t.Fatal("two identical bare runs digest differently")
	}
	// Two different (fake, monotone) wall clocks: wall totals differ,
	// digests must not.
	w1, w2 := int64(0), int64(1000)
	wall1 := miniRun(New(Config{Wall: func() int64 { w1 += 3; return w1 }}))
	wall2 := miniRun(New(Config{Wall: func() int64 { w2 += 17; return w2 }}))
	if !wall1.WallEnabled() {
		t.Fatal("WallEnabled false with a wall clock configured")
	}
	if digestOf(wall1) != digestOf(bare1) || digestOf(wall2) != digestOf(bare1) {
		t.Fatal("telemetry plane leaked into the deterministic digest")
	}
	// The folded export switches to wall values under the telemetry plane.
	if folded := foldedOf(t, wall1); !strings.Contains(folded, "engine ") {
		t.Fatalf("wall folded output missing engine self-time:\n%s", folded)
	}
}

// TestProfiledEngineDigestsLikeBare is the unit-level half of the CI
// fingerprint check: attaching the profiler must not change the engine's
// own digest, because attribution never schedules or cancels events.
func TestProfiledEngineDigestsLikeBare(t *testing.T) {
	run := func(p *Profiler) uint64 {
		eng := sim.NewEngine()
		var sc *Scope
		if p != nil {
			p.AttachEngine(eng)
			sc = p.NewScope("s")
		}
		var tick func()
		n := 0
		tick = func() {
			if sc != nil {
				sc.Enter()
				p.Exit()
			}
			n++
			if n < 32 {
				eng.After(13*sim.Nanosecond, tick)
			}
		}
		eng.After(0*sim.Nanosecond, tick)
		eng.RunUntil(500 * sim.Nanosecond)
		h := digest.NewHash(0)
		eng.DigestState(&h)
		return h.Sum64()
	}
	if run(nil) != run(New(Config{})) {
		t.Fatal("profiled engine digests differently from bare engine")
	}
}

// TestEnterExitZeroAlloc pins the hot path: once the scope tree is warm,
// Enter/Exit and the post-event hook allocate nothing.
func TestEnterExitZeroAlloc(t *testing.T) {
	p := New(Config{})
	eng := sim.NewEngine()
	p.AttachEngine(eng)
	a := p.NewScope("a")
	b := p.NewScope("b")
	// Warm the tree and the inline caches.
	a.Enter()
	b.Enter()
	p.Exit()
	p.Exit()
	if allocs := testing.AllocsPerRun(1000, func() {
		a.Enter()
		b.Enter()
		p.Exit()
		p.Exit()
	}); allocs != 0 { //tcnlint:floatexact zero-alloc assertion, exact by definition
		t.Fatalf("Enter/Exit allocates %.1f per run, want 0", allocs)
	}
}

// TestChildScopeMatchesTwoEnters pins Child's contract: one Enter of a
// child scope leaves the deterministic plane exactly as entering its
// outer frame and then its own would, under any parent, with the inline
// cache cold, hit, and rotated.
func TestChildScopeMatchesTwoEnters(t *testing.T) {
	run := func(fused bool) *Profiler {
		p := New(Config{})
		eng := sim.NewEngine()
		p.AttachEngine(eng)
		host := p.NewScope("transport:data")
		other := p.NewScope("sched:z")
		port := p.NewScope("port:x")
		var stage, stage2 *Scope
		if fused {
			stage, stage2 = port.Child("enqueue"), port.Child("dequeue")
		} else {
			stage, stage2 = p.NewScope("enqueue"), p.NewScope("dequeue")
		}
		enter := func(s *Scope) {
			if !fused {
				port.Enter()
			}
			s.Enter()
		}
		n := 0
		var tick func()
		tick = func() {
			// Three parents in rotation, so the 2-way cache misses too.
			switch n % 3 {
			case 1:
				host.Enter()
			case 2:
				other.Enter()
			}
			enter(stage)
			if n%2 == 0 {
				other.Enter()
				p.Exit()
			}
			p.Exit()
			p.Exit()
			enter(stage2)
			p.Exit()
			p.Exit()
			if n%3 != 0 {
				p.Exit()
			}
			n++
			if n < 50 {
				eng.After(5*sim.Nanosecond, tick)
			}
		}
		eng.After(0, tick)
		eng.RunUntil(1000 * sim.Nanosecond)
		p.FinishEngine(eng)
		return p
	}
	two, fused := run(false), run(true)
	if digestOf(two) != digestOf(fused) {
		t.Fatalf("child scope tree differs from two Enters:\n%s\nvs\n%s", foldedOf(t, two), foldedOf(t, fused))
	}
	if foldedOf(t, fused) != foldedOf(t, two) {
		t.Fatal("folded exports differ")
	}
	if !strings.Contains(foldedOf(t, fused), "engine;transport:data;port:x;enqueue;sched:z ") {
		t.Fatalf("missing nested stage stack:\n%s", foldedOf(t, fused))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Child of a child scope did not panic")
		}
	}()
	New(Config{}).NewScope("a").Child("b").Child("c")
}
