package main

import (
	"slices"
	"strings"
	"testing"
)

func sampleOutputs() Outputs {
	return Outputs{
		Cells: []CellOutput{{
			Flows: 100, AvgAllNs: 5_000_000, AvgSmallNs: 300_000, P99SmallNs: 2_000_000,
			AvgLargeNs: 40_000_000, Timeouts: 3, TimeoutsSmall: 1, Drops: 12, Marks: 4000,
		}},
		Chains: []string{"cell0 engine engine 0123456789abcdef"},
	}
}

func TestDiffOutputs(t *testing.T) {
	a := sampleOutputs()
	if d := diffOutputs(a, sampleOutputs()); d != "" {
		t.Fatalf("identical outputs differ: %s", d)
	}

	b := sampleOutputs()
	b.Cells[0].P99SmallNs++
	b.Cells[0].Marks = 0
	d := diffOutputs(a, b)
	if !strings.Contains(d, "P99SmallNs") || !strings.Contains(d, "Marks") || strings.Contains(d, "AvgAllNs") {
		t.Errorf("diff names the wrong fields: %s", d)
	}

	c := sampleOutputs()
	c.Cells[0].Jain = 0.9999999999999999
	a.Cells[0].Jain = 1
	if d := diffOutputs(a, c); !strings.Contains(d, "Jain") {
		t.Errorf("a one-ulp float change went unnoticed: %q", d)
	}

	e := sampleOutputs()
	e.Chains[0] = "cell0 engine engine 0123456789abcdee"
	if d := diffOutputs(sampleOutputs(), e); !strings.Contains(d, "chains") {
		t.Errorf("a changed fingerprint chain went unnoticed: %q", d)
	}

	f := sampleOutputs()
	f.Cells = append(f.Cells, CellOutput{})
	if d := diffOutputs(sampleOutputs(), f); !strings.Contains(d, "cells") {
		t.Errorf("a missing cell went unnoticed: %q", d)
	}
}

func TestCheckOutputs(t *testing.T) {
	ref := &Reference{Outputs: sampleOutputs()}
	if d := checkOutputs(ref, nil, sampleOutputs()); d != "" {
		t.Errorf("matching reference reported: %s", d)
	}
	off := sampleOutputs()
	off.Cells[0].Drops = 13
	if d := checkOutputs(ref, nil, off); !strings.Contains(d, "Drops") {
		t.Errorf("reference mismatch not reported: %q", d)
	}

	// Without a reference: every flow must finish, and later repetitions
	// must match the first.
	unfinished := sampleOutputs()
	unfinished.Cells[0].Unfinished = 2
	if d := checkOutputs(nil, nil, unfinished); !strings.Contains(d, "unfinished") {
		t.Errorf("unfinished flows not reported: %q", d)
	}
	first := sampleOutputs()
	if d := checkOutputs(nil, &first, off); !strings.Contains(d, "Drops") {
		t.Errorf("repetition mismatch not reported: %q", d)
	}
	if d := checkOutputs(nil, &first, sampleOutputs()); d != "" {
		t.Errorf("identical repetition reported: %s", d)
	}
}

// TestReferencesCoverEveryWorkload checks the recorded reference file:
// every FCT workload has a full cell table, dcqcn has seeds
// 1..recordSeeds, every cell finished its flows, and every seed selects a
// cell.
func TestReferencesCoverEveryWorkload(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		want := tableCells
		if w.flows == 0 {
			want = recordSeeds
		}
		if got := len(refs[w.name]); got != want {
			t.Errorf("%s: %d cells recorded, want %d", w.name, got, want)
		}
		for _, ref := range refs[w.name] {
			if len(ref.Outputs.Cells) != w.cells {
				t.Errorf("%s runner seed %d: %d cells recorded, workload runs %d", w.name, ref.Seed, len(ref.Outputs.Cells), w.cells)
			}
			for i, c := range ref.Outputs.Cells {
				if c.Unfinished != 0 {
					t.Errorf("%s runner seed %d cell %d: %d flows unfinished", w.name, ref.Seed, i, c.Unfinished)
				}
			}
			if ref.Ports.Hops == 0 {
				t.Errorf("%s runner seed %d: no hops recorded", w.name, ref.Seed)
			}
		}
		seen := map[int64]bool{}
		for _, seed := range []int64{-7, 0, 1, 2, 10, int64(tableCells) + 1, 1 << 40} {
			in, ref, err := refs.cellFor(w, seed)
			switch {
			case err != nil:
				t.Errorf("%s seed %d: %v", w.name, seed, err)
			case w.flows == 0 && (ref != nil) != (seed >= 1 && seed <= recordSeeds):
				t.Errorf("%s seed %d: reference %v", w.name, seed, ref != nil)
			case w.flows == 0 && in.seed != seed:
				t.Errorf("%s seed %d runs runner seed %d", w.name, seed, in.seed)
			case w.flows > 0 && (ref == nil || in.seed != ref.Seed || in.bytes != ref.PlanBytes || in.flows != w.flows):
				t.Errorf("%s seed %d: inputs %+v do not match the reference", w.name, seed, in)
			}
			if again, _, _ := refs.cellFor(w, seed); again != in {
				t.Errorf("%s seed %d: selected %+v, then %+v", w.name, seed, in, again)
			}
			if seed >= 1 && seed <= 10 {
				seen[in.seed] = true
			}
		}
		if len(seen) != 3 {
			t.Errorf("%s: seeds 1, 2 and 10 share runner seeds: %v", w.name, seen)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestTableCellsPlanTheirBytes checks each FCT workload's cell table
// against the rule it was chosen by: its cells are candidates in order,
// each within cellTolerance of the target bytes, and their allocated
// bytes and events lie within a band the tolerances allow. It also
// checks the premise of choosing by plan: the cell the runner builds plans
// exactly the recorded bytes.
func TestTableCellsPlanTheirBytes(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if w.flows == 0 {
			continue
		}
		cands := map[int64]int{}
		for i, in := range w.candidates(tableCandidates) {
			cands[in.seed] = i
		}
		last := -1
		var allocs, events []float64
		for _, ref := range refs[w.name] {
			in := input{seed: ref.Seed, flows: w.flows, bytes: ref.PlanBytes}
			i, ok := cands[ref.Seed]
			if !ok || i <= last {
				t.Errorf("%s runner seed %d is not the next candidate", w.name, ref.Seed)
			}
			last = i
			if !within(float64(ref.PlanBytes), float64(w.bytes), cellTolerance) {
				t.Errorf("%s runner seed %d plans %d bytes, too far from %d", w.name, ref.Seed, ref.PlanBytes, w.bytes)
			}
			for c := 0; c < w.cells; c++ {
				if got := w.buildCell(in, c, nil).plannedBytes; got != ref.PlanBytes {
					t.Errorf("%s runner seed %d cell %d plans %d bytes, recorded %d", w.name, ref.Seed, c, got, ref.PlanBytes)
				}
			}
			allocs = append(allocs, float64(ref.AllocBytes))
			events = append(events, float64(ref.Events))
		}
		for _, band := range []struct {
			name string
			xs   []float64
			tol  float64
		}{{"allocated bytes", allocs, allocTolerance}, {"events", events, eventTolerance}} {
			lo, hi := slices.Min(band.xs), slices.Max(band.xs)
			if hi/lo > (1+band.tol)/(1-band.tol) {
				t.Errorf("%s: %s range from %.0f to %.0f", w.name, band.name, lo, hi)
			}
		}
	}
}
