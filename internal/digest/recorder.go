package digest

import "fmt"

// Digestable is implemented by every simulator component that can fold
// its externally observable state into a rolling hash. Implementations
// must only READ state (a digest pass over an instrumented run must leave
// it bit-identical to a bare one — no lazy refills, no sketch flushes),
// must not allocate (snapshots run between events on the steady-state
// path and are pinned by AllocsPerRun), and must write fields in a fixed
// order with fixed widths (no maps, no floats-as-text).
type Digestable interface {
	DigestState(h *Hash)
}

// Config parameterizes a Recorder. Zero values select the defaults.
type Config struct {
	// Seed primes every digest; timelines with different seeds are not
	// comparable and the diff engine refuses them. Default 1.
	Seed uint64
	// EpochNs is the snapshot period in sim nanoseconds (default 1ms).
	// Two comparable runs must use the same period so their epochs align.
	EpochNs int64
	// RecordCap preallocates the record store (default 1<<15 records).
	// The store doubles past it, but a capacity-guarded run stays
	// allocation-free — size it to epochs × components for pinned paths.
	RecordCap int
	// Fine enables per-event digests bracketed around FineAtEpoch: every
	// event executed in the windows leading into epochs FineAtEpoch and
	// FineAtEpoch+1 appends one chained whole-scope digest. tcndiff's
	// drill-in rerun sets this to the first divergent epoch it reported.
	Fine bool
	// FineAtEpoch is the epoch index the fine bracket centers on.
	FineAtEpoch int64
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.EpochNs <= 0 {
		c.EpochNs = 1_000_000 // 1ms of sim time
	}
	if c.RecordCap <= 0 {
		c.RecordCap = 1 << 15
	}
	return c
}

// Record is one epoch snapshot of one component: the chained digest of
// that component's state at that instant. Chained means each epoch's
// digest folds in the previous one, so a component that diverges at epoch
// E stays divergent at every later epoch — the monotonicity the diff
// engine's binary search relies on.
type Record struct {
	Scope     string
	Epoch     int64
	At        int64 // sim ns
	Component Component
	Label     string
	Digest    uint64
}

// FineRecord is one per-event snapshot in fine mode: the chained digest
// of an entire scope after one event executed. Event is the engine's
// cumulative executed-event count, the index tcndiff reports.
type FineRecord struct {
	Scope  string
	Event  uint64
	At     int64 // sim ns
	Digest uint64
}

// Recorder accumulates the digest timeline of one tcnsim invocation. It
// may span several experiment cells (each with its own engine): every
// engine gets its own Scope, so a snapshot digests only that cell's
// components and the timeline stays O(cells × epochs × components), not
// O(cells² × ...). The recorder is shared mutable state like the flight
// recorder — attaching it forces a sweep serial (experiments.Obs.Active).
type Recorder struct {
	cfg     Config
	seeded  uint64 // hash state after the seed, where every digest starts
	scopes  []*Scope
	byOwner map[any]*Scope
	records []Record
	fine    []FineRecord
}

// New returns an empty recorder.
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{
		cfg:     cfg,
		seeded:  NewHash(cfg.Seed).h,
		byOwner: map[any]*Scope{},
		records: make([]Record, 0, cfg.RecordCap),
	}
}

// Seed returns the digest seed.
func (r *Recorder) Seed() uint64 { return r.cfg.Seed }

// EpochNs returns the snapshot period in sim nanoseconds. The caller (not
// this package) schedules the epoch ticks, so the recorder never touches
// an engine.
func (r *Recorder) EpochNs() int64 { return r.cfg.EpochNs }

// FineEnabled reports whether per-event fine records are requested; the
// caller only installs the (one nil check per event) engine hook then.
func (r *Recorder) FineEnabled() bool { return r.cfg.Fine }

// ScopeFor returns the scope registered for owner, creating it on first
// use. Owners are opaque keys — one per engine — compared by identity;
// scopes are labeled "cell0", "cell1", ... in creation order, which is
// deterministic because cells attach serially whenever a recorder is on.
func (r *Recorder) ScopeFor(owner any) *Scope {
	if s, ok := r.byOwner[owner]; ok {
		return s
	}
	s := &Scope{
		rec:    r,
		label:  fmt.Sprintf("cell%d", len(r.scopes)),
		fineOn: r.cfg.Fine && r.cfg.FineAtEpoch == 0,
	}
	r.byOwner[owner] = s
	r.scopes = append(r.scopes, s)
	return s
}

// ScopeOf returns the scope registered for owner, or nil.
func (r *Recorder) ScopeOf(owner any) *Scope { return r.byOwner[owner] }

// Records returns the epoch records in append order (not a copy).
func (r *Recorder) Records() []Record { return r.records }

// FineRecords returns the fine records in append order (not a copy).
func (r *Recorder) FineRecords() []FineRecord { return r.fine }

// Timeline packages the recorder's current state for the diff engine,
// sharing the underlying record slices.
func (r *Recorder) Timeline() *Timeline {
	return &Timeline{Seed: r.cfg.Seed, EpochNs: r.cfg.EpochNs, Records: r.records, Fine: r.fine}
}

// growRecords at least doubles the record store's capacity. Left to
// append, a store of a million records grows by 1.25× at a time and
// clears and copies itself about four times over by the end of a long
// fingerprinted run.
func (r *Recorder) growRecords(n int) {
	grown := make([]Record, len(r.records), 2*cap(r.records)+n)
	copy(grown, r.records)
	r.records = grown
}

// registration pairs a component with its identity.
type registration struct {
	kind  Component
	label string
	d     Digestable
}

// Scope is the per-engine slice of a recorder: the components of one
// experiment cell, their digest chains, and the cell's fine chain. All
// methods run on the goroutine that owns the cell's engine.
type Scope struct {
	rec    *Recorder
	label  string
	comps  []registration
	chain  []uint64
	epoch  int64
	fineOn bool

	// fineChain is the chained whole-scope digest fine mode extends per
	// event.
	fineChain uint64

	// The snapshot kernel's state (memo.go): h is the collect-mode hash
	// handed to DigestState (a local would escape through the interface
	// call and allocate); cur and prev are this and the previous
	// collect's bytes, curEnd and prevEnd each component's end offset in
	// them; memo[i][j] is the memo of component i's block j.
	h               Hash
	cur, prev       []byte
	curEnd, prevEnd []int
	memo            [][]*blockMemo
}

// Label returns the scope's cell label.
func (s *Scope) Label() string { return s.label }

// Epoch returns the number of snapshots taken so far (the index the next
// snapshot will record).
func (s *Scope) Epoch() int64 { return s.epoch }

// Register adds a component to the scope. Registration order is the
// digest order, so it must be deterministic (it is: cells build their
// fabric in program order). Register before the first Snapshot.
func (s *Scope) Register(kind Component, label string, d Digestable) {
	if d == nil {
		panic(fmt.Sprintf("digest: nil Digestable registered as %s %q", kind, label))
	}
	if s.epoch > 0 {
		panic(fmt.Sprintf("digest: %s %q registered after snapshot %d; chains would not align across runs",
			kind, label, s.epoch))
	}
	s.comps = append(s.comps, registration{kind: kind, label: label, d: d})
	s.chain = append(s.chain, 0)
	s.curEnd = append(s.curEnd, 0)
	s.prevEnd = append(s.prevEnd, 0)
	s.memo = append(s.memo, nil)
}

// start returns the hash state after the seed and a previous chain
// digest, the prefix every snapshot digest begins with.
func (s *Scope) start(chain uint64) uint64 {
	h := Hash{h: s.rec.seeded}
	h.WriteUint64(chain)
	return h.h
}

// Snapshot records one epoch: every component's state is hashed, chained
// onto its previous digest, and appended to the recorder. The digest is
// FNV-1a over seed, previous digest and the component's DigestState bytes;
// the kernel in memo.go re-hashes only the blocks that changed. at is the sim
// time in nanoseconds. Allocation-free while the record store stays
// within its preallocated capacity.
func (s *Scope) Snapshot(at int64) {
	if len(s.rec.records)+len(s.comps) > cap(s.rec.records) {
		s.rec.growRecords(len(s.comps))
	}
	s.collect()
	for i := range s.comps {
		d := s.fold(i, s.start(s.chain[i]))
		s.chain[i] = d
		//tcnlint:hotpath capacity is ensured above (RecordCap, doubled by growRecords past it); this append never grows
		s.rec.records = append(s.rec.records, Record{
			Scope: s.label, Epoch: s.epoch, At: at,
			Component: s.comps[i].kind, Label: s.comps[i].label, Digest: d,
		})
	}
	s.epoch++
	s.fineOn = s.rec.cfg.Fine &&
		s.epoch >= s.rec.cfg.FineAtEpoch && s.epoch <= s.rec.cfg.FineAtEpoch+1
}

// FineSnapshot records one per-event digest when the fine bracket is
// open: the whole scope's state chained onto the previous fine digest.
// event is the engine's cumulative executed-event count. Outside the
// bracket this is one boolean test.
func (s *Scope) FineSnapshot(event uint64, at int64) {
	if !s.fineOn {
		return
	}
	s.collect()
	d := s.start(s.fineChain)
	for i := range s.comps {
		d = s.fold(i, d)
	}
	s.fineChain = d
	//tcnlint:hotpath fine records only accrue inside the two-epoch bracket the drill-in rerun requests
	s.rec.fine = append(s.rec.fine, FineRecord{Scope: s.label, Event: event, At: at, Digest: d})
}
