package digest

import (
	"math/bits"
	"testing"
)

// splitmix is a splitmix64 stream for test inputs. digest is a leaf
// package, so its tests cannot use sim.Rand.
type splitmix struct{ s uint64 }

func (r *splitmix) Uint64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *splitmix) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// blob is a Digestable with a variable-length state: fixed-width words
// followed by length-prefixed strings, so its byte stream can be edited
// in place, grown, shrunk, and made of lengths that are not multiples of 8.
type blob struct {
	words []uint64
	strs  []string
}

func (b *blob) DigestState(h *Hash) {
	for _, w := range b.words {
		h.WriteUint64(w)
	}
	for _, s := range b.strs {
		h.WriteString(s)
	}
}

// streamOracle is the streaming snapshot Scope used before the memo
// kernel: every component's fields folded through a fresh seeded Hash,
// chained onto its previous digest. The kernel must match it bit for bit.
type streamOracle struct {
	seed  uint64
	comps []Digestable
	chain []uint64
	fine  uint64
}

func newStreamOracle(seed uint64, comps ...Digestable) *streamOracle {
	return &streamOracle{seed: seed, comps: comps, chain: make([]uint64, len(comps))}
}

func (o *streamOracle) snapshot() []uint64 {
	for i, c := range o.comps {
		h := NewHash(o.seed)
		h.WriteUint64(o.chain[i])
		c.DigestState(&h)
		o.chain[i] = h.Sum64()
	}
	return o.chain
}

func (o *streamOracle) fineSnapshot() uint64 {
	h := NewHash(o.seed)
	h.WriteUint64(o.fine)
	for _, c := range o.comps {
		c.DigestState(&h)
	}
	o.fine = h.Sum64()
	return o.fine
}

// memoRig drives a recorder scope and the streaming oracle over the same
// components and fails on the first digest that differs.
type memoRig struct {
	t   testing.TB
	rec *Recorder
	sc  *Scope
	or  *streamOracle
	at  int64
}

func newMemoRig(t testing.TB, seed uint64, blobs []*blob) *memoRig {
	rec := New(Config{Seed: seed, Fine: true})
	sc := rec.ScopeFor("eng")
	comps := make([]Digestable, len(blobs))
	for i, b := range blobs {
		sc.Register(ComponentPort, "p", b)
		comps[i] = b
	}
	return &memoRig{t: t, rec: rec, sc: sc, or: newStreamOracle(rec.Seed(), comps...)}
}

// step takes one fine snapshot and one epoch snapshot and checks both
// against the oracle.
func (r *memoRig) step() {
	r.t.Helper()
	r.at++
	// Hold the fine bracket open at every epoch so fine chains are
	// checked at every step, not just inside the configured bracket.
	r.sc.fineOn = true
	r.sc.FineSnapshot(uint64(r.at), r.at)
	fine := r.rec.FineRecords()
	if got, want := fine[len(fine)-1].Digest, r.or.fineSnapshot(); got != want {
		r.t.Fatalf("step %d: fine digest %016x, oracle %016x", r.at, got, want)
	}
	r.sc.Snapshot(r.at)
	want := r.or.snapshot()
	recs := r.rec.Records()
	recs = recs[len(recs)-len(want):]
	for i := range want {
		if recs[i].Digest != want[i] {
			r.t.Fatalf("step %d component %d: epoch digest %016x, oracle %016x",
				r.at, i, recs[i].Digest, want[i])
		}
	}
}

// edit applies one per-epoch edit, chosen by op, to b.
func edit(b *blob, op, k byte, rng *splitmix) {
	switch op % 6 {
	case 0: // unchanged
	case 1: // flip one byte in block k
		if len(b.words) == 0 {
			return
		}
		w := (int(k) * blockSize / 8) % len(b.words)
		b.words[w] ^= 0xff << (8 * uint(k%8))
	case 2: // grow across a block boundary
		n := blockSize/8 + int(k)%(blockSize/8)
		for i := 0; i < n; i++ {
			b.words = append(b.words, rng.Uint64())
		}
	case 3: // shrink across a block boundary
		n := blockSize/8 + int(k)%(blockSize/8)
		b.words = b.words[:max(0, len(b.words)-n)]
	case 4: // replace a string (odd lengths shift every later block)
		s := make([]byte, int(k)%40)
		for i := range s {
			s[i] = byte(rng.Intn(256))
		}
		if len(b.strs) > 0 && k%2 == 0 {
			b.strs[int(k)%len(b.strs)] = string(s)
		} else {
			b.strs = append(b.strs, string(s))
		}
	case 5: // drop the strings
		b.strs = b.strs[:0]
	}
}

func TestFoldIdentity(t *testing.T) {
	rng := &splitmix{1}
	for n := 0; n <= blockSize; n += 37 {
		blk := make([]byte, n)
		for i := range blk {
			blk[i] = byte(rng.Uint64())
		}
		// C_B learned from one state must predict every state with the
		// same low byte.
		x0 := rng.Uint64()
		c := fnvBytes(x0, blk) - x0*powP[n]
		for i := 0; i < 100; i++ {
			x := rng.Uint64()&^0xff | x0&0xff
			if got, want := x*powP[n]+c, fnvBytes(x, blk); got != want {
				t.Fatalf("len %d: identity gives %016x, FNV-1a %016x", n, got, want)
			}
		}
	}
}

func TestSnapshotMatchesStreamingOracle(t *testing.T) {
	rng := &splitmix{7}
	blobs := []*blob{{}, {words: make([]uint64, 100)}, {words: make([]uint64, 3*blockSize/8)}}
	r := newMemoRig(t, 3, blobs)
	for i := 0; i < 2000; i++ {
		// Mostly idle epochs, so memos fill and hit, with sparse edits.
		if rng.Intn(4) == 0 {
			edit(blobs[rng.Intn(len(blobs))], byte(rng.Intn(6)), byte(rng.Intn(256)), rng)
		}
		r.step()
	}
	// A long idle stretch: every block repeats, so almost every fold of
	// it is a memo hit once its table has seen the low bytes.
	for i := 0; i < 1000; i++ {
		r.step()
	}
	m := r.sc.memo[2][0]
	if m == nil {
		t.Fatal("no memo for an unchanged block")
	}
	learned := 0
	for _, w := range m.seen {
		learned += bits.OnesCount64(w)
	}
	if learned >= 2000 {
		t.Fatalf("block memo learned %d entries over 2000 folds: no hits", learned)
	}
}

// FuzzSnapshotMemo drives random component byte streams through random
// per-epoch edits and checks the epoch and fine chains against the
// streaming oracle after every step.
func FuzzSnapshotMemo(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 0, 1, 3, 0, 2, 9, 0, 0, 4, 5})
	f.Add(int64(2), []byte{2, 1, 2, 2, 0, 0, 0, 0, 3, 4, 1, 0, 5, 200, 0, 0})
	f.Add(int64(3), []byte{4, 7, 4, 8, 1, 1, 0, 0, 0, 0, 3, 3, 1, 2})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		rng := &splitmix{uint64(seed)}
		blobs := make([]*blob, 1+rng.Intn(3))
		for i := range blobs {
			blobs[i] = &blob{words: make([]uint64, rng.Intn(2*blockSize/8))}
			for j := range blobs[i].words {
				blobs[i].words[j] = rng.Uint64()
			}
		}
		r := newMemoRig(t, uint64(seed), blobs)
		r.step()
		for i := 0; i+1 < len(ops); i += 2 {
			edit(blobs[int(ops[i+1])%len(blobs)], ops[i], ops[i+1], rng)
			// Each edit is followed by idle epochs, so memos learned on
			// the edited bytes are hit (or dropped) on the next edit.
			for k := 0; k < 1+int(ops[i]>>4); k++ {
				r.step()
			}
		}
	})
}

// BenchmarkSnapshot snapshots a scope shaped like a fig6 testbed cell
// (an engine with a 2 KB freelist, a 2.3 KB t-digest, nine 512 B ports,
// a ledger and a rand stream: 9.4 KB) in which nothing changes ("idle"),
// one word per component changes per epoch ("drained", the runners' tail
// after the last flow) or every word changes ("busy").
func BenchmarkSnapshot(b *testing.B) {
	sizes := []int{2200, 2300, 512, 512, 512, 512, 512, 512, 512, 512, 512, 200, 16}
	for _, mode := range []string{"idle", "drained", "busy"} {
		b.Run(mode, func(b *testing.B) {
			rec := New(Config{RecordCap: 1 << 10})
			sc := rec.ScopeFor("eng")
			blobs := make([]*blob, len(sizes))
			for i, n := range sizes {
				blobs[i] = &blob{words: make([]uint64, n/8)}
				sc.Register(ComponentPort, "p", blobs[i])
			}
			b.SetBytes(9400)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, bl := range blobs {
					switch mode {
					case "drained":
						bl.words[0]++
					case "busy":
						for j := range bl.words {
							bl.words[j]++
						}
					}
				}
				sc.Snapshot(int64(i))
				if len(rec.digests) > 1<<9 {
					rec.digests, rec.snaps = rec.digests[:0], rec.snaps[:0]
				}
			}
		})
	}
}
