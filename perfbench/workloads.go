package main

import (
	"fmt"
	"math"
	"sort"

	"tcn/internal/core"
	"tcn/internal/dcqcn"
	"tcn/internal/digest"
	"tcn/internal/experiments"
	"tcn/internal/fabric"
	"tcn/internal/metrics"
	"tcn/internal/obs/flight"
	"tcn/internal/obs/prof"
	"tcn/internal/pias"
	"tcn/internal/pkt"
	"tcn/internal/sim"
	"tcn/internal/trace"
	"tcn/internal/transport"
	"tcn/internal/workload"
)

// Cell sizes. Each is chosen so one repetition takes a few seconds on a
// 2-CPU Xeon: long enough that a run's median is steady, short enough
// that a --seconds window holds several repetitions. The *Bytes targets
// are the median plan bytes for the flow count (see "Choosing FCT
// cells").
const (
	leafSpineFlows = 300
	leafSpineBytes = 1_200_000_000
	testbedFlows   = 2000
	testbedBytes   = 3_420_000_000
	observedFlows  = 250
	observedBytes  = 430_000_000
	dcqcnSenders   = 32
	dcqcnMeasure   = 4 * sim.Second
	load           = 0.9
)

// workloadSpec is one benchmark input: a figure cell (or a small sweep) run
// through its public experiments runner.
type workloadSpec struct {
	name string
	// workers is the sweep width the runner is asked for (the runner may
	// clamp it; observed sweeps run serially).
	workers int
	// observers returns the workload's own observer sinks, fresh for
	// every repetition; nil when the workload attaches none.
	observers func() *experiments.Obs
	// flows is the flow count per cell of an FCT workload, whose inputs
	// come from its recorded cell table; 0 for dcqcn, which runs --seed.
	flows int
	// bytes is the FCT workload's target plan bytes per cell, and plan
	// its arrival-plan configuration for given inputs.
	bytes int64
	plan  func(in input) workload.PlanConfig
	// run executes one repetition through the public runner. Fingerprint
	// chains are read from o after the timed call, not by run.
	run func(in input, o *experiments.Obs) Outputs
	// cells is the number of cells one repetition runs.
	cells int
	// buildCell constructs cell i through the same public constructors
	// the runner uses, stopping before the first event. Building every
	// cell is the span setup_s times; the traced run also builds and
	// finishes each cell in turn to count per-port work the runners do
	// not expose.
	buildCell func(in input, i int, o *experiments.Obs) *replica
}

// input is what a repetition's cells are generated from.
type input struct {
	seed  int64 // the runner's seed
	flows int   // per cell
	bytes int64 // planned bytes per cell, where the cell is chosen by bytes
}

// replica is one cell built outside its runner: its engine, the switch
// ports whose work is counted, and a finish function that runs the cell
// to its deadline and returns the same outputs the runner reports.
type replica struct {
	ports        []*fabric.Port
	plannedBytes int64
	finish       func() CellOutput
}

var workloads = []*workloadSpec{
	{
		name:    "leafspine",
		workers: 1,
		flows:   leafSpineFlows,
		bytes:   leafSpineBytes,
		plan: func(in input) workload.PlanConfig {
			cfg := leafSpineConfig(in)
			return leafSpinePlan(cfg, cfg.Leaves*cfg.HostsPerLeaf)
		},
		run: func(in input, o *experiments.Obs) Outputs {
			sw := experiments.RunFig10(experiments.LeafSpineSweepConfig{
				Loads:   []float64{load},
				Flows:   in.flows,
				Seed:    in.seed,
				Schemes: []experiments.Scheme{experiments.SchemeTCN},
				Leaves:  4, Spines: 4, HostsPerLeaf: 4,
				Obs:     o,
				Workers: 1,
			})
			c := sw.Cells[0][0]
			return Outputs{Cells: []CellOutput{fctOutput(c.Stats, c.Unfinished, c.Drops, -1)}}
		},
		cells: 1,
		buildCell: func(in input, _ int, o *experiments.Obs) *replica {
			return buildLeafSpine(in, o)
		},
	},
	{
		name:    "testbed",
		workers: 1,
		flows:   testbedFlows,
		bytes:   testbedBytes,
		plan:    testbedPlan,
		run: func(in input, o *experiments.Obs) Outputs {
			sw := experiments.RunFig6(experiments.SweepConfig{
				Loads:   []float64{load},
				Flows:   in.flows,
				Seed:    in.seed,
				Schemes: []experiments.Scheme{experiments.SchemeTCN},
				Obs:     o,
				Workers: 1,
			})
			c := sw.Cells[0][0]
			return Outputs{Cells: []CellOutput{fctOutput(c.Stats, c.Unfinished, c.Drops, c.Marks)}}
		},
		cells: 1,
		buildCell: func(in input, _ int, o *experiments.Obs) *replica {
			return buildTestbed(in, experiments.SchemeTCN, o)
		},
	},
	{
		name:    "dcqcn",
		workers: 1,
		run: func(in input, o *experiments.Obs) Outputs {
			r := experiments.RunDCQCNMarking(dcqcnConfig(in.seed, o))
			return Outputs{Cells: []CellOutput{dcqcnOutput(r)}}
		},
		cells: 1,
		buildCell: func(in input, _ int, o *experiments.Obs) *replica {
			return buildDCQCN(dcqcnConfig(in.seed, o))
		},
	},
	{
		name:    "observed-sweep",
		workers: 2,
		observers: func() *experiments.Obs {
			return &experiments.Obs{
				Fingerprint: digest.New(digest.Config{EpochNs: int64(sim.Millisecond)}),
				Profiler:    prof.New(prof.Config{}),
				Ledger:      trace.NewLedger(1 << 16),
			}
		},
		flows: observedFlows,
		bytes: observedBytes,
		plan:  testbedPlan,
		run: func(in input, o *experiments.Obs) Outputs {
			sw := experiments.RunFig6(experiments.SweepConfig{
				Loads:   []float64{load},
				Flows:   in.flows,
				Seed:    in.seed,
				Schemes: observedSchemes,
				Obs:     o,
				Workers: 2,
			})
			var out Outputs
			for _, row := range sw.Cells {
				c := row[0]
				out.Cells = append(out.Cells, fctOutput(c.Stats, c.Unfinished, c.Drops, c.Marks))
			}
			return out
		},
		cells: len(observedSchemes),
		buildCell: func(in input, i int, o *experiments.Obs) *replica {
			return buildTestbed(in, observedSchemes[i], o)
		},
	},
}

// observedSchemes is the fig6 pair the observed sweep runs.
var observedSchemes = []experiments.Scheme{experiments.SchemeTCN, experiments.SchemeRED}

func workloadNamed(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func dcqcnConfig(seed int64, o *experiments.Obs) experiments.DCQCNMarkingConfig {
	c := experiments.DefaultDCQCNMarking()
	c.Senders = dcqcnSenders
	c.Measure = dcqcnMeasure
	c.Probabilistic = true
	c.Seed = seed
	c.Obs = o
	return c
}

// finalChains returns the last digest of every fingerprint chain, one
// "scope component label digest" line per chain, sorted.
func finalChains(r *digest.Recorder) []string {
	if r == nil {
		return nil
	}
	type chain struct {
		scope, label string
		comp         digest.Component
	}
	last := map[chain]uint64{}
	for _, rec := range r.Records() {
		last[chain{rec.Scope, rec.Label, rec.Component}] = rec.Digest
	}
	out := make([]string, 0, len(last))
	for c, d := range last {
		out = append(out, fmt.Sprintf("%s %s %s %016x", c.scope, c.comp, c.label, d))
	}
	sort.Strings(out)
	return out
}

func fctOutput(s metrics.FCTStats, unfinished, drops int, marks int64) CellOutput {
	return CellOutput{
		Flows: s.Flows, Unfinished: unfinished,
		AvgAllNs: int64(s.AvgAll), AvgSmallNs: int64(s.AvgSmall), P99SmallNs: int64(s.P99Small),
		AvgLargeNs: int64(s.AvgLarge),
		Timeouts:   s.Timeouts, TimeoutsSmall: s.TimeoutsSmall,
		Drops: drops, Marks: marks,
	}
}

func dcqcnOutput(r experiments.DCQCNMarkingResult) CellOutput {
	return CellOutput{Jain: r.Jain, AggGbps: r.AggGbps, CNPs: r.CNPs, Marks: -1}
}

// The build functions below mirror the runners' cell setup statement for
// statement, through the same public constructors. The traced run checks
// that a built cell, run to its deadline, reproduces the runner's outputs
// and event counts exactly, so a runner whose setup changes without its
// mirror here fails the benchmark instead of timing stale code.

// buildLeafSpine mirrors experiments.RunLeafSpine for the fig10 cell.
func buildLeafSpine(in input, o *experiments.Obs) *replica {
	cfg := leafSpineConfig(in)

	eng := sim.NewEngine()
	o.AttachEngine(eng)
	rng := sim.NewRand(cfg.Seed)
	o.AttachRand(eng, rng)

	kBytes := 65 * 1500
	rttLambda := 78 * sim.Microsecond
	rate := 10 * fabric.Gbps
	pp := experiments.PortParams{
		Queues:        1 + cfg.Services,
		HighQueues:    1,
		Buffer:        300_000,
		Quantum:       1500,
		RTTLambda:     rttLambda,
		KBytes:        kBytes,
		CoDelTarget:   rttLambda / 5,
		CoDelInterval: 4 * rttLambda,
		TIdle:         rate.Serialize(1500),
	}
	net := fabric.NewLeafSpine(eng, fabric.LeafSpineConfig{
		Leaves:       cfg.Leaves,
		Spines:       cfg.Spines,
		HostsPerLeaf: cfg.HostsPerLeaf,
		HostRate:     rate,
		SpineRate:    rate,
		Prop:         650 * sim.Nanosecond,
		HostDelay:    40 * sim.Microsecond,
		SwitchPort:   pp.Factory(cfg.Scheme, experiments.SchedSPDWRR, rng),
	})
	o.AttachLeafSpine(fmt.Sprintf("%s.%s.load%g", cfg.Scheme, experiments.SchedSPDWRR, load), net)
	st := transport.NewStack(eng, transport.Config{
		CC:         cfg.CC,
		RTOMin:     5 * sim.Millisecond,
		RTOInit:    5 * sim.Millisecond,
		InitWindow: 16,
		AckDSCP:    func(*transport.Flow) uint8 { return 0 },
	}, net.Hosts)
	o.AttachTransport(st)

	plan := workload.Plan(rng, leafSpinePlan(cfg, len(net.Hosts)))
	col := metrics.NewStreamingFCTCollector(metrics.DefaultCompression)
	o.AttachFCT(eng, col)
	st.OnDone = func(f *transport.Flow) {
		col.Record(metrics.FlowRecord{Size: f.Size, FCT: f.FCT(), Class: f.Class, Timeouts: f.Timeouts})
	}
	for _, spec := range plan {
		st.StartAt(spec.At, &transport.Flow{
			ID:    st.NewFlowID(),
			Src:   spec.Src,
			Dst:   spec.Dst,
			Size:  spec.Size,
			Class: spec.Class + 1,
			Tag:   pias.Tag(0, spec.Class+1, pias.DefaultThreshold),
		})
	}
	deadline := plan[len(plan)-1].At + 120*sim.Second
	ports := net.SwitchPorts()
	return &replica{ports: ports, plannedBytes: workload.TotalBytes(plan), finish: func() CellOutput {
		eng.RunUntil(deadline)
		drops := 0
		for _, p := range ports {
			drops += p.Buffer().TotalDrops()
		}
		o.ReportCell(eng, st.Pool())
		o.ReportFCT(col)
		return fctOutput(col.Stats(), cfg.Flows-col.Count(), drops, -1)
	}}
}

// leafSpineConfig is the fig10 cell RunFig10 runs for these inputs.
func leafSpineConfig(in input) experiments.LeafSpineConfig {
	cfg := experiments.DefaultLeafSpine()
	cfg.Flows = in.flows
	cfg.Seed = in.seed
	cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = 4, 4, 4
	return cfg
}

// leafSpinePlan is RunLeafSpine's arrival-plan configuration.
func leafSpinePlan(cfg experiments.LeafSpineConfig, hosts int) workload.PlanConfig {
	all := make([]int, hosts)
	for i := range all {
		all[i] = i
	}
	cdfs := map[uint8]workload.CDF{}
	for s := 0; s < cfg.Services; s++ {
		cdfs[uint8(s)] = workload.All[s%len(workload.All)]
	}
	return workload.PlanConfig{
		Flows:      cfg.Flows,
		Load:       load,
		Bottleneck: fabric.Rate(hosts) * 10 * fabric.Gbps,
		CDFs:       cdfs,
		Pair:       workload.UniformPairs(all, all),
		Class:      func(r *sim.Rand) uint8 { return uint8(r.Intn(cfg.Services)) },
	}
}

// Choosing FCT cells. A cell's cost and memory depend on its input. Its
// plan's bytes vary from seed to seed: fig10's data-mining service draws
// 1% of flows from 100 MB to 1 GB, so a 300-flow fig10 plan ranges from
// 0.69 GB (p10) to 2.2 GB (p90). And at equal bytes, how the flows
// collide sets how much the cell allocates (packets in flight, connection
// state), and the peak heap follows the bytes allocated. Each FCT
// workload therefore runs cells from a table in reference.json, recorded
// once by --record: among the first tableCandidates runner seeds 1, 2, 3,
// … whose plan lies within cellTolerance of the workload's target bytes,
// the first tableCells whose heap bytes allocated by the runner call and
// events lie within allocTolerance and eventTolerance of the candidates'
// medians. The table fixes the inputs: a later change to the simulator
// changes neither which cells run nor how --seed maps to them.

const (
	cellTolerance   = 0.02
	allocTolerance  = 0.05
	eventTolerance  = 0.05
	tableCandidates = 120
	tableCells      = 12
)

// planBytes is the bytes the workload's runner plans for the inputs. The
// runners draw nothing from their rand before Plan (TCN, RED, DWRR and
// SP/DWRR take no random draws when built), so this is the plan the
// runner builds; TestTableCellsPlanTheirBytes checks it.
func (w *workloadSpec) planBytes(in input) int64 {
	return workload.TotalBytes(workload.Plan(sim.NewRand(in.seed), w.plan(in)))
}

// candidates returns the inputs of the first n runner seeds whose plan
// lies within cellTolerance of the workload's target bytes.
func (w *workloadSpec) candidates(n int) []input {
	var out []input
	for s := int64(1); len(out) < n; s++ {
		in := input{seed: s, flows: w.flows}
		in.bytes = w.planBytes(in)
		if within(float64(in.bytes), float64(w.bytes), cellTolerance) {
			out = append(out, in)
		}
	}
	return out
}

func within(x, target, tol float64) bool { return math.Abs(x/target-1) <= tol }

// testbedPlan is RunTestbedFCT's arrival-plan configuration: web-search
// flows from the 8 servers to the client, spread over 4 service queues.
func testbedPlan(in input) workload.PlanConfig {
	const services = 4
	cdfs := map[uint8]workload.CDF{}
	for s := 0; s < services; s++ {
		cdfs[uint8(s)] = workload.WebSearch
	}
	return workload.PlanConfig{
		Flows:      in.flows,
		Load:       load,
		Bottleneck: fabric.Gbps,
		CDFs:       cdfs,
		Pair:       workload.ManyToOne([]int{0, 1, 2, 3, 4, 5, 6, 7}, 8),
		Class:      func(r *sim.Rand) uint8 { return uint8(r.Intn(services)) },
	}
}

// buildTestbed mirrors experiments.RunTestbedFCT for a fig6 cell (DWRR,
// persistent connection pools), labelled as RunFig6 labels it.
func buildTestbed(in input, scheme experiments.Scheme, o *experiments.Obs) *replica {
	seed, flows := in.seed, in.flows
	const (
		services = 4
		recv     = 8
	)
	eng := sim.NewEngine()
	o.AttachEngine(eng)
	rng := sim.NewRand(seed)
	o.AttachRand(eng, rng)

	pp := experiments.PortParams{
		Queues:        services,
		Buffer:        96_000,
		Quantum:       1500,
		RTTLambda:     256 * sim.Microsecond,
		KBytes:        32_000,
		CoDelTarget:   sim.Time(51.2 * 1000),
		CoDelInterval: 1024 * sim.Microsecond,
		TIdle:         fabric.Gbps.Serialize(1500),
	}
	net := fabric.NewStar(eng, fabric.StarConfig{
		Hosts:      9,
		Rate:       fabric.Gbps,
		Prop:       2500 * sim.Nanosecond,
		HostDelay:  120 * sim.Microsecond,
		SwitchPort: pp.Factory(scheme, experiments.SchedDWRR, rng),
	})
	o.AttachStar(fmt.Sprintf("fig6.%s.load%g", scheme, load), net)
	st := transport.NewStack(eng, transport.Config{CC: transport.DCTCP, RTOMin: 10 * sim.Millisecond}, net.Hosts)
	o.AttachTransport(st)

	plan := workload.Plan(rng, testbedPlan(in))
	col := metrics.NewStreamingFCTCollector(metrics.DefaultCompression)
	o.AttachFCT(eng, col)
	st.OnMessage = func(m *transport.Message) {
		col.Record(metrics.FlowRecord{Size: m.Size, FCT: m.FCT(), Class: m.Class, Timeouts: m.Timeouts})
	}
	pool := transport.NewPool(st, 5)
	for _, spec := range plan {
		spec := spec
		m := &transport.Message{Size: spec.Size, Class: spec.Class}
		eng.At(spec.At, func() { pool.Submit(spec.Src, spec.Dst, m) })
	}
	deadline := plan[len(plan)-1].At + 60*sim.Second
	ports := make([]*fabric.Port, net.Switch.NumPorts())
	for i := range ports {
		ports[i] = net.Switch.Port(i)
	}
	return &replica{ports: ports, plannedBytes: workload.TotalBytes(plan), finish: func() CellOutput {
		eng.RunUntil(deadline)
		drops := 0
		for _, p := range ports {
			drops += p.Buffer().TotalDrops()
		}
		marks := markCount(net.Switch.Port(recv).Marker())
		o.ReportCell(eng, st.Pool())
		o.ReportFCT(col)
		return fctOutput(col.Stats(), flows-col.Count(), drops, marks)
	}}
}

// buildDCQCN mirrors experiments.RunDCQCNMarking, including its queue
// occupancy probe (the probe's events are part of the cell).
func buildDCQCN(cfg experiments.DCQCNMarkingConfig) *replica {
	eng := sim.NewEngine()
	cfg.Obs.AttachEngine(eng)
	rng := sim.NewRand(cfg.Seed)
	cfg.Obs.AttachRand(eng, rng)

	recv := cfg.Senders
	net := fabric.NewStar(eng, fabric.StarConfig{
		Hosts:     cfg.Senders + 1,
		Rate:      10 * fabric.Gbps,
		Prop:      sim.Microsecond,
		HostDelay: 5 * sim.Microsecond,
		SwitchPort: func() fabric.PortConfig {
			return fabric.PortConfig{Queues: 1, Marker: core.NewProbTCN(cfg.Tmin, cfg.Tmax, cfg.Pmax, rng)}
		},
	})
	st := dcqcn.NewStack(eng, dcqcn.Config{}, net.Hosts)
	delivered := map[pkt.FlowID]float64{}
	st.OnDeliver = func(now sim.Time, f pkt.FlowID, n int) {
		if now >= cfg.Warmup {
			delivered[f] += float64(n)
		}
	}
	var snds []*dcqcn.Sender
	for src := 0; src < cfg.Senders; src++ {
		snds = append(snds, st.Start(src, recv, 0))
	}
	port := net.Switch.Port(recv)
	const seriesCap = 1 << 15
	rec := flight.New(flight.Config{SeriesCap: seriesCap})
	occ := rec.SeriesCap("dcqcn.occupancy_bytes", seriesCap)
	rec.Probe(eng, occ.Name(), 50*sim.Microsecond, func(sim.Time) float64 {
		return float64(port.PortBytes())
	})
	ports := make([]*fabric.Port, net.Switch.NumPorts())
	for i := range ports {
		ports[i] = net.Switch.Port(i)
	}
	return &replica{ports: ports, finish: func() CellOutput {
		eng.RunUntil(cfg.Warmup + cfg.Measure)
		var r experiments.DCQCNMarkingResult
		sum, _ := metrics.SumAndSumSq(delivered)
		r.Jain = metrics.JainFairness(delivered, cfg.Senders)
		r.AggGbps = sum * 8 / cfg.Measure.Seconds() / 1e9
		for _, s := range snds {
			r.CNPs += s.CNPs
		}
		cfg.Obs.ReportCell(eng, st.Pool())
		return dcqcnOutput(r)
	}}
}

func markCount(m core.Marker) int64 {
	if mc, ok := m.(core.MarkCounter); ok {
		return mc.MarkCount()
	}
	return 0
}

// portWork sums the per-port work of built cells after they finished:
// switch-port transmissions (hops), admission drops, and CE marks applied
// by the ports' markers.
func portWork(cells []*replica) (hops, drops, marks int64) {
	for _, c := range cells {
		for _, p := range c.ports {
			for q := 0; q < p.NumQueues(); q++ {
				hops += p.TxPackets[q]
			}
			drops += int64(p.Buffer().TotalDrops())
			marks += markCount(p.Marker())
		}
	}
	return hops, drops, marks
}
