// Command perfbench is the repository's end-to-end benchmark. It runs
// figure cells through the public experiments runners, checks their
// simulated outputs, and reports what a user of the simulator sees: wall
// and CPU time per cell, packets simulated per second, set-up time and
// peak heap. A separate traced run reports a per-layer CPU ledger from a
// runtime/pprof profile taken around the runner call, plus exact work
// counts read through the simulator's public accessors.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload leafspine --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tcn/internal/experiments"
	"tcn/internal/obs/perf"
)

// setupBatch is how long one setup_s batch builds cells, at least.
const setupBatch = 200 * time.Millisecond

// recordSeeds is how many seeds, 1..recordSeeds, --record records for
// dcqcn.
const recordSeeds = 20

// closureTolerance bounds |unattributed share| of the traced CPU time.
const closureTolerance = 0.10

func main() {
	name := flag.String("workload", "", "workload: leafspine, testbed, dcqcn or observed-sweep")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 15, "measurement window in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	record := flag.String("record", "", "record the FCT workloads' cell tables and dcqcn's reference outputs to this file and exit; with --workload, only that workload is re-recorded")
	flag.Parse()

	if *record != "" {
		if err := writeReferences(*record, *name); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w := workloadNamed(*name)
	if w == nil || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --trace 0|1 and --seconds > 0\n", workloadNames())
		os.Exit(2)
	}
	refs, err := loadReferences()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	in, ref, err := refs.cellFor(w, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	root, _ := os.Getwd()
	mach := machineRecord(root)
	steal0 := stealTicks()

	b := &bench{w: w, in: in, ref: ref, window: time.Duration(*seconds * float64(time.Second))}
	var res result
	if *traced == 1 {
		res = b.tracedRun()
	} else {
		res = b.endToEndRun()
	}
	mach.LoadAfter = loadAvg()
	mach.StealS = float64(stealTicks()-steal0) / 100
	report(os.Stdout, w.name, *seed, b.in, b.ref != nil, mach, res)
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench:", p)
	}
	os.Stdout.Write(append(b.resultLine(res), '\n'))
}

func workloadNames() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return strings.Join(n, ", ")
}

// Counts are the exact work counts of one repetition. Every repetition of
// a workload must reproduce them.
type Counts struct {
	Events, Scheduled, Canceled, Cascades uint64
	PendingHighWater                      int64
	PktDraws, PoolReuses                  int64
	DigestRecords                         int
}

// rep is one measured repetition.
type rep struct {
	wall, cpu  float64 // seconds
	peakHeap   uint64  // bytes of resident memory added at peak
	allocBytes uint64
	mallocs    uint64
	gcs        uint32
	busy       float64 // Σ sweep-worker busy seconds
	out        Outputs
	counts     Counts
	profile    []byte
	err        string
}

type bench struct {
	w      *workloadSpec
	in     input
	window time.Duration
	ref    *Reference

	attempted, failed int
	problems          []string
	first             *rep
}

// metric is one reported value.
type metric struct {
	name, unit string
	value      float64
}

type result struct {
	metrics []metric
	// walls and heaps list every measured repetition's wall seconds and
	// peak heap MB, for the human-readable report.
	walls, heaps []float64
}

func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.problems) < 20 {
		b.problems = append(b.problems, msg)
	}
}

// newObs returns the workload's observers (fresh) plus a perf campaign,
// the source of the engine and packet-pool counts.
func (b *bench) newObs() *experiments.Obs {
	o := &experiments.Obs{}
	if b.w.observers != nil {
		o = b.w.observers()
	}
	o.Perf = perf.NewCampaign(func() int64 { return time.Now().UnixNano() })
	return o
}

// measure runs one repetition through the workload's runner, optionally
// under a CPU profile, and checks it: outputs against the reference (or
// the run's first repetition), counts against the first repetition.
func (b *bench) measure(profiled bool) rep {
	var r rep
	o := b.newObs()
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof bytes.Buffer
	rss0, err := resetPeakRSS()
	if err != nil {
		r.err = err.Error()
	}
	c0 := cpuSeconds()
	if profiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			r.err = "cpu profile: " + err.Error()
		}
	}
	t0 := time.Now()
	func() {
		defer func() {
			if p := recover(); p != nil {
				r.err = fmt.Sprint("panic: ", p)
			}
		}()
		r.out = b.w.run(b.in, o)
	}()
	r.wall = time.Since(t0).Seconds()
	if profiled {
		pprof.StopCPUProfile()
		r.profile = prof.Bytes()
	}
	r.cpu = cpuSeconds() - c0
	if hwm, _, err := readRSS(); err != nil {
		r.err = err.Error()
	} else if hwm > rss0 {
		r.peakHeap = hwm - rss0
	}
	runtime.ReadMemStats(&m1)
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.gcs = m1.NumGC - m0.NumGC
	r.out.Chains = finalChains(o.Fingerprint)
	r.counts = campaignCounts(o)
	for _, ws := range o.Perf.WorkerSnapshots() {
		r.busy += ws.BusySeconds
	}
	b.check(&r)
	return r
}

func campaignCounts(o *experiments.Obs) Counts {
	s := o.Perf.SnapshotNow(false)
	c := Counts{
		Events:           s.EventsExecuted,
		Scheduled:        s.EventsScheduled,
		Canceled:         s.EventsCanceled,
		Cascades:         s.WheelCascades,
		PendingHighWater: s.PendingHighWater,
		PktDraws:         s.PoolAllocs + s.PoolReuses,
		PoolReuses:       s.PoolReuses,
	}
	if o.Fingerprint != nil {
		c.DigestRecords = len(o.Fingerprint.Records())
	}
	return c
}

func (b *bench) check(r *rep) {
	b.attempted++
	bad := false
	if r.err != "" {
		b.fail("repetition %d: %s", b.attempted, r.err)
		bad = true
	} else {
		var first *Outputs
		if b.first != nil {
			first = &b.first.out
		}
		if d := checkOutputs(b.ref, first, r.out); d != "" {
			b.fail("repetition %d outputs: %s", b.attempted, d)
			bad = true
		}
		if b.first != nil && r.counts != b.first.counts {
			b.fail("repetition %d counts %+v differ from first repetition %+v", b.attempted, r.counts, b.first.counts)
			bad = true
		}
	}
	if bad {
		b.failed++
	}
	if b.first == nil && r.err == "" {
		b.first = r
	}
}

// endToEndRun measures the user-visible metrics with no tracing: the
// counting run, which also warms up and is not timed, then repetitions
// until the window is spent (at least three), each followed by one batch
// of builds for setup_s, reported as medians (peak heap as a mean).
// Spreading the batches over the window keeps a burst of hypervisor
// steal from moving every one of them. The counting run must agree with
// the repetitions, so setup_s never times a stale mirror of a runner.
func (b *bench) endToEndRun() result {
	c := b.countingRun()
	var reps []rep
	var setups []float64
	start := time.Now()
	for len(reps) < 3 || time.Since(start) < b.window {
		reps = append(reps, b.measure(false))
		setups = append(setups, b.setupTime())
	}
	b.agree(c)
	var wall, cpu, heap []float64
	for _, r := range reps {
		wall = append(wall, r.wall)
		cpu = append(cpu, r.cpu)
		heap = append(heap, float64(r.peakHeap)/(1<<20))
	}
	// Times here are CPU times, not wall times: on a shared VM the
	// hypervisor's steal moves wall time by more than the bounds allow
	// between runs minutes apart, while CPU time excludes it. Wall time and
	// packets per wall second are per-layer metrics of the traced run.
	return result{walls: wall, heaps: heap, metrics: []metric{
		{"cpu_s", "s", median(cpu)},
		{"setup_s", "s", median(setups)},
		// A mean, not a median: on observed-sweep a repetition's peak falls
		// in one of several modes (about 320, 350, 375 or 440 MB), by when
		// the collector and scavenger run against the growth of the
		// fingerprint record store, and the median of a few draws jumps
		// between modes where their mean moves little.
		{"peak_heap_mb", "MB", mean(heap)},
	}}
}

// setupTime builds the workload's cells through the public
// constructors, observers included, again and again for at least
// setupBatch, and returns the mean CPU seconds per build. Nothing is run.
// The batch is long enough that the garbage collections the builds cause
// fall into it in proportion, and one late timer tick cannot move it much.
func (b *bench) setupTime() float64 {
	runtime.GC()
	n := 0
	t0, c0 := time.Now(), cpuSeconds()
	for n == 0 || time.Since(t0) < setupBatch {
		o := &experiments.Obs{}
		if b.w.observers != nil {
			o = b.w.observers()
		}
		cells := make([]*replica, b.w.cells)
		for c := range cells {
			cells[c] = b.w.buildCell(b.in, c, o)
		}
		runtime.KeepAlive(cells)
		n++
	}
	return (cpuSeconds() - c0) / float64(n)
}

// counted is what a counting run saw.
type counted struct {
	out    Outputs
	counts Counts
	ports  PortWork
	err    error
}

// countingRun builds and finishes every cell outside the runner and
// returns the outputs, engine counts and per-port work. It must agree
// with the runner exactly.
func (b *bench) countingRun() counted {
	o := b.newObs()
	var out Outputs
	var cells []*replica
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		for i := 0; i < b.w.cells; i++ {
			c := b.w.buildCell(b.in, i, o)
			out.Cells = append(out.Cells, c.finish())
			cells = append(cells, c)
		}
		out.Chains = finalChains(o.Fingerprint)
		return nil
	}()
	c := counted{out: out, counts: campaignCounts(o), err: err}
	c.ports.Hops, c.ports.Drops, c.ports.Marks = portWork(cells)
	return c
}

// agree checks a counting run, one more attempted repetition, against the
// runner's first repetition: the cells built outside the runner must
// reproduce its outputs and engine counts exactly, and the recorded
// per-port work. It returns the per-port work.
func (b *bench) agree(c counted) PortWork {
	b.attempted++
	out, counts, pw := c.out, c.counts, c.ports
	switch {
	case c.err != nil:
		b.fail("counting run: %v", c.err)
		b.failed++
	case b.first == nil:
		b.failed++
	default:
		var problems []string
		if d := diffOutputs(b.first.out, out); d != "" {
			problems = append(problems, "outputs: "+d)
		}
		if counts != b.first.counts {
			problems = append(problems, fmt.Sprintf("counts %+v, runner %+v", counts, b.first.counts))
		}
		if b.ref != nil && pw != b.ref.Ports {
			problems = append(problems, fmt.Sprintf("port work %+v, reference %+v", pw, b.ref.Ports))
		}
		if len(problems) > 0 {
			b.fail("cells built outside the runner disagree with it: %s", strings.Join(problems, "; "))
			b.failed++
		}
	}
	return pw
}

// tracedRun measures the per-layer metrics: the counting run, which
// supplies per-port work and warms up, then bare and CPU-profiled
// repetitions alternating until the window is spent.
func (b *bench) tracedRun() result {
	counting := b.countingRun()
	var bare, traced []rep
	start := time.Now()
	for len(traced) < 2 || time.Since(start) < b.window {
		bare = append(bare, b.measure(false))
		traced = append(traced, b.measure(true))
	}

	led := newLedger()
	var tracedCPU float64
	for _, r := range traced {
		if err := led.AddProfile(r.profile); err != nil {
			b.fail("profile: %v", err)
		}
		tracedCPU += r.cpu
	}
	n := float64(len(traced))
	tracedCPU /= n

	pw := b.agree(counting)

	c := b.first
	if c == nil {
		c = &rep{}
	}
	cnt := c.counts
	var flows, timeouts, cnps int
	for _, cell := range c.out.Cells {
		flows += cell.Flows
		timeouts += cell.Timeouts
		cnps += cell.CNPs
	}
	self := func(layer string) float64 { return float64(led.Layer[layer]) / n / 1e9 }
	sub := func(s string) float64 { return float64(led.Sub[s]) / n / 1e9 }
	var attributed float64
	for _, l := range layers {
		attributed += self(l)
	}
	unattributed := 1 - attributed/tracedCPU
	if math.IsNaN(unattributed) || math.Abs(unattributed) > closureTolerance {
		b.fail("ledger does not close: layers sum to %.3fs of %.3fs traced CPU", attributed, tracedCPU)
	}

	var bareWall, tracedWall, pps, busy, alloc, mallocs, gcs []float64
	for _, r := range bare {
		bareWall = append(bareWall, r.wall)
		pps = append(pps, float64(r.counts.PktDraws)/r.wall)
		busy = append(busy, r.busy)
		alloc = append(alloc, float64(r.allocBytes)/(1<<20))
		mallocs = append(mallocs, float64(r.mallocs))
		gcs = append(gcs, float64(r.gcs))
	}
	for _, r := range traced {
		tracedWall = append(tracedWall, r.wall)
	}
	wall := median(bareWall)
	busyS := median(busy)
	poolHit := 0.0
	if cnt.PktDraws > 0 {
		poolHit = 100 * float64(cnt.PoolReuses) / float64(cnt.PktDraws)
	}

	m := []metric{
		{"wall_s", "s", wall},
		{"pkts_per_s", "1/s", median(pps)},
		{"sim.events", "count", float64(cnt.Events)},
		{"sim.events_per_pkt", "ratio", ratio(float64(cnt.Events), float64(cnt.PktDraws))},
		{"sim.cancel_ratio", "ratio", ratio(float64(cnt.Canceled), float64(cnt.Scheduled))},
		{"sim.cascades_per_event", "ratio", ratio(float64(cnt.Cascades), float64(cnt.Events))},
		{"sim.pending_high_water", "count", float64(cnt.PendingHighWater)},
		{"sim.self_s", "s", self("sim")},
		{"sim.ns_per_event", "ns", ratio(self("sim")*1e9, float64(cnt.Events))},
		{"fabric.hops", "count", float64(pw.Hops)},
		{"fabric.self_s", "s", self("fabric")},
		{"fabric.ns_per_hop", "ns", ratio(self("fabric")*1e9, float64(pw.Hops))},
		{"queue.self_s", "s", self("queue")},
		{"queue.drops", "count", float64(pw.Drops)},
		{"queue.drop_ratio", "ratio", ratio(float64(pw.Drops), float64(pw.Hops+pw.Drops))},
		{"sched.self_s", "s", self("sched")},
		{"sched.ns_per_hop", "ns", ratio(self("sched")*1e9, float64(pw.Hops))},
		{"marker.marks", "count", float64(pw.Marks)},
		{"marker.mark_ratio", "ratio", ratio(float64(pw.Marks), float64(pw.Hops))},
		{"marker.self_s", "s", self("marker")},
		{"transport.flows_done", "count", float64(flows)},
		{"transport.timeouts", "count", float64(timeouts)},
		{"transport.self_s", "s", self("transport")},
		{"transport.ns_per_pkt", "ns", ratio(self("transport")*1e9, float64(cnt.PktDraws))},
		{"dcqcn.cnps", "count", float64(cnps)},
		{"dcqcn.self_s", "s", self("dcqcn")},
		{"pkt.draws", "count", float64(cnt.PktDraws)},
		{"pkt.pool_hit_pct", "%", poolHit},
		{"pkt.self_s", "s", self("pkt")},
		{"runtime.self_s", "s", self("runtime")},
		{"runtime.alloc_mb", "MB", median(alloc)},
		{"runtime.mallocs", "count", median(mallocs)},
		{"runtime.gc_cycles", "count", median(gcs)},
		{"observers.self_s", "s", self("observers")},
		{"digest.self_s", "s", sub("digest")},
		{"prof.self_s", "s", sub("prof")},
		{"trace.self_s", "s", sub("trace")},
		{"obs.self_s", "s", sub("obs")},
		{"digest.records", "count", float64(cnt.DigestRecords)},
		{"parallel.self_s", "s", self("parallel")},
		{"parallel.busy_s", "s", busyS},
		{"parallel.idle_s", "s", float64(b.w.workers)*wall - busyS},
		{"parallel.effective_workers", "ratio", ratio(busyS, wall)},
		{"experiments.self_s", "s", self("experiments")},
		{"bench.self_s", "s", self("bench")},
		{"ledger.cpu_s", "s", tracedCPU},
		{"ledger.unattributed_share", "ratio", unattributed},
		{"trace.overhead", "ratio", ratio(median(tracedWall), wall)},
	}
	return result{walls: bareWall, metrics: m}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS resets the kernel's peak-resident-set mark (VmHWM) to the
// current resident set and returns that, in bytes.
func resetPeakRSS() (uint64, error) {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return 0, fmt.Errorf("reset peak RSS: %w", err)
	}
	_, rss, err := readRSS()
	return rss, err
}

// readRSS returns the peak and current resident set from
// /proc/self/status, in bytes.
func readRSS() (hwm, rss uint64, err error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, 0, fmt.Errorf("read RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok || (k != "VmHWM" && k != "VmRSS") {
			continue
		}
		kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("read RSS: %s: %w", k, err)
		}
		if k == "VmHWM" {
			hwm = kb << 10
		} else {
			rss = kb << 10
		}
	}
	if hwm == 0 || rss == 0 {
		return 0, 0, errors.New("read RSS: no VmHWM/VmRSS in /proc/self/status")
	}
	return hwm, rss, nil
}

// report prints the machine record and a metric table, then the result
// object as the last line.
func report(w *os.File, name string, seed int64, in input, haveRef bool, mach Machine, res result) {
	mj, _ := json.Marshal(mach)
	fmt.Fprintf(w, "machine %s\n", mj)
	fmt.Fprintf(w, "workload %s seed %d (runner seed %d", name, seed, in.seed)
	if in.flows > 0 {
		fmt.Fprintf(w, ", %d flows per cell", in.flows)
	}
	fmt.Fprintf(w, ") reference %v\n", haveRef)
	fmt.Fprintf(w, "  repetition wall_s %.4g\n", res.walls)
	if res.heaps != nil {
		fmt.Fprintf(w, "  repetition peak_heap_mb %.4g\n", res.heaps)
	}
	for _, m := range res.metrics {
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", m.name, m.value, m.unit)
	}
}

func (b *bench) resultLine(res result) []byte {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, m := range res.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		ms[m.name] = val{v, m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{len(b.problems) == 0 && b.failed == 0, b.attempted, b.failed, ms})
	return line
}

// writeReferences records reference.json: each FCT workload's cell table
// (see "Choosing FCT cells" in workloads.go), and dcqcn's result for seeds
// 1..recordSeeds. Every recorded cell runs through its runner and through
// the counting run, which must agree. With only set, it re-records that
// workload and keeps the other workloads' entries.
func writeReferences(path, only string) error {
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		var cells []Reference
		if w.flows == 0 {
			for s := int64(1); s <= recordSeeds; s++ {
				ref, _, err := runCell(w, input{seed: s})
				if err != nil {
					return err
				}
				cells = append(cells, ref)
			}
		} else if cells, err = recordTable(w); err != nil {
			return err
		}
		for i := range cells {
			if err := cells[i].recordPorts(w); err != nil {
				return err
			}
		}
		refs[w.name] = cells
	}
	buf, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// runCell runs one repetition of w on in through its runner and returns
// what it recorded, with the repetition's bench.
func runCell(w *workloadSpec, in input) (Reference, *bench, error) {
	b := &bench{w: w, in: in}
	r := b.measure(false)
	if b.failed > 0 {
		return Reference{}, nil, fmt.Errorf("%s runner seed %d: %s", w.name, in.seed, strings.Join(b.problems, "; "))
	}
	fmt.Fprintf(os.Stderr, "%s runner seed %d: plan %d bytes, %d bytes allocated, %d events, peak %.2f MB, %.2f s\n",
		w.name, in.seed, in.bytes, r.allocBytes, r.counts.Events, float64(r.peakHeap)/(1<<20), r.wall)
	return Reference{
		Seed: in.seed, PlanBytes: in.bytes, AllocBytes: r.allocBytes,
		Events: r.counts.Events, Outputs: r.out,
	}, b, nil
}

// recordTable chooses an FCT workload's cell table.
func recordTable(w *workloadSpec) ([]Reference, error) {
	var cands []Reference
	var allocs, events []float64
	for _, in := range w.candidates(tableCandidates) {
		ref, _, err := runCell(w, in)
		if err != nil {
			return nil, err
		}
		cands = append(cands, ref)
		allocs = append(allocs, float64(ref.AllocBytes))
		events = append(events, float64(ref.Events))
	}
	ma, me := median(allocs), median(events)
	var table []Reference
	for _, c := range cands {
		if len(table) < tableCells && within(float64(c.AllocBytes), ma, allocTolerance) && within(float64(c.Events), me, eventTolerance) {
			table = append(table, c)
		}
	}
	if len(table) < tableCells {
		return nil, fmt.Errorf("%s: only %d of %d candidates lie near the median %.0f bytes allocated and %.0f events",
			w.name, len(table), len(cands), ma, me)
	}
	return table, nil
}

// recordPorts runs the cell again, through the runner and the counting
// run, and records the counting run's per-port work once the two agree.
func (ref *Reference) recordPorts(w *workloadSpec) error {
	in := input{seed: ref.Seed, flows: w.flows, bytes: ref.PlanBytes}
	_, b, err := runCell(w, in)
	if err != nil {
		return err
	}
	pw := b.agree(b.countingRun())
	if b.failed > 0 {
		return fmt.Errorf("%s runner seed %d: %s", w.name, ref.Seed, strings.Join(b.problems, "; "))
	}
	ref.Ports = pw
	return nil
}
