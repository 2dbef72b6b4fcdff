package experiments

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"tcn/internal/digest"
)

// goldenPath holds the committed golden fingerprints: the final digest of
// every per-component chain of each goldenCells cell, one sorted
// "scope component label digest" line per chain. Only final chains are
// stored — each chain folds in every earlier epoch, so its last digest
// changes whenever any snapshot of the run does.
const goldenPath = "testdata/golden_fingerprints.txt"

// goldenCell is one CI-scale experiment cell under the golden gate. run
// executes the cell with obs attached, fingerprinted every epochNs of sim
// time; cmd is the tcnsim invocation whose first cell (scope cell0) is
// this cell, for localizing a mismatch.
type goldenCell struct {
	name    string
	cmd     string
	epochNs int64
	run     func(obs *Obs)
}

var goldenCells = []goldenCell{
	{
		name:    "fig1.PortRED.n1",
		cmd:     "-exp fig1",
		epochNs: 1_000_000,
		run: func(obs *Obs) {
			cfg := DefaultFig1()
			cfg.Obs = obs
			runFig1Point(cfg, 1)
		},
	},
	{
		name:    "fig2.dynred-40KB",
		cmd:     "-exp fig2",
		epochNs: 1_000_000,
		run: func(obs *Obs) {
			cfg := DefaultFig2()
			cfg.Obs = obs
			runFig2Once(cfg, SchemeDynRED, 40_000, "dynred-40KB")
		},
	},
	{
		// The SP-DWRR + PIAS testbed cell (Figure 8's runner, the same
		// RunTestbedFCT path Figure 6 takes over DWRR).
		name:    "fig8.TCN.load0.7",
		cmd:     "-exp fig8 -flows 400 -loads 0.7 -seed 11 -exact-fct",
		epochNs: 1_000_000,
		run: func(obs *Obs) {
			RunTestbedFCT(TestbedFCTConfig{
				Scheme: SchemeTCN, Sched: SchedSPDWRR, PIAS: true,
				Load: 0.7, Flows: 400, Seed: 11, ExactFCT: true,
				Obs: obs, ObsLabel: "fig8.TCN.load0.7",
			})
		},
	},
	{
		name:    "dcqcn.cutoff.s2",
		cmd:     "-exp dcqcn",
		epochNs: 1_000_000,
		run: func(obs *Obs) {
			cfg := DefaultDCQCNMarking()
			cfg.Senders = 2
			cfg.Obs = obs
			RunDCQCNMarking(cfg)
		},
	},
	{
		// A leaf-spine run lasts until its 120 s deadline, so 1 ms
		// epochs would snapshot 48 ports 120 000 times; 10 ms epochs
		// keep the cell near 2 s.
		name:    "fig10.TCN.load0.5",
		cmd:     "-exp fig10 -flows 100 -loads 0.5 -fingerprint-epoch 10ms",
		epochNs: 10_000_000,
		run: func(obs *Obs) {
			cfg := DefaultLeafSpine()
			cfg.Load, cfg.Flows = 0.5, 100
			cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = 4, 4, 4
			cfg.Obs = obs
			RunLeafSpine(cfg)
		},
	},
}

// finalChains runs one cell under a fingerprint recorder and returns the
// final digest of each chain, keyed "scope component label" with the cell
// name as scope.
func finalChains(c goldenCell) map[string]string {
	rec := digest.New(digest.Config{EpochNs: c.epochNs})
	c.run(&Obs{Fingerprint: rec})
	out := map[string]string{}
	for _, r := range rec.Records() {
		out[fmt.Sprintf("%s %s %s", c.name, r.Component, r.Label)] = fmt.Sprintf("%016x", r.Digest)
	}
	return out
}

// readGolden parses the golden file into the same key → digest form.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("reading goldens: %v", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		out[line[:i]] = line[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading goldens: %v", err)
	}
	return out
}

// TestGoldenFingerprints gates every semantic change to the simulator:
// each goldenCells cell must reproduce its committed final chain digests
// exactly. A mismatch names every differing chain, prints the tcnsim and
// tcndiff commands that localize it against the parent commit, and prints
// the full replacement file for a change that is meant to move them.
func TestGoldenFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second workload run")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden fingerprints are recorded on linux/amd64; on %s float-dependent chains may differ (Go fuses multiply-add into FMA on arm64, ppc64le, s390x), so they are not checked here", runtime.GOARCH)
	}
	want := readGolden(t)
	got := map[string]string{}
	all := map[string]bool{}
	for _, c := range goldenCells {
		//tcnlint:ordered chains are only copied; keys are sorted below
		for k, v := range finalChains(c) {
			got[k] = v
			all[k] = true
		}
	}
	//tcnlint:ordered keys are only collected; they are sorted below
	for k := range want {
		all[k] = true
	}
	var diffs []string
	cmds := map[string]bool{}
	for _, k := range sortedKeys(all) {
		g, ok := got[k]
		switch {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("%s: golden %s, chain no longer recorded", k, want[k]))
		case want[k] != g:
			diffs = append(diffs, fmt.Sprintf("%s: golden %q, got %s", k, want[k], g))
		default:
			continue
		}
		if c, ok := goldenCellOf(k); ok {
			cmds[c.cmd] = true
		}
	}
	if len(diffs) == 0 {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d chains differ from %s:\n  %s\n\n", len(diffs), goldenPath, strings.Join(diffs, "\n  "))
	b.WriteString("Localize with tcnsim built at the parent commit (a) and at this change (b):\n")
	for _, cmd := range sortedKeys(cmds) {
		fmt.Fprintf(&b, "  tcnsim %s -fingerprint a.jsonl; tcnsim %s -fingerprint b.jsonl; tcndiff a.jsonl b.jsonl\n", cmd, cmd)
	}
	fmt.Fprintf(&b, "\nIf the change is meant to move them, replace %s with:\n%s", goldenPath, goldenFile(got))
	t.Fatal(b.String())
}

// goldenCellOf returns the cell a chain key belongs to; a key left in the
// file by a cell that no longer exists has none.
func goldenCellOf(key string) (goldenCell, bool) {
	for _, c := range goldenCells {
		if strings.HasPrefix(key, c.name+" ") {
			return c, true
		}
	}
	return goldenCell{}, false
}

// goldenFile renders chains in the committed file's format.
func goldenFile(chains map[string]string) string {
	var b strings.Builder
	b.WriteString("# Final fingerprint chain digests of the TestGoldenFingerprints cells\n")
	b.WriteString("# (linux/amd64): scope component label digest.\n")
	b.WriteString("# See EXPERIMENTS.md, \"Golden fingerprints\", before regenerating.\n")
	for _, k := range sortedKeys(chains) {
		fmt.Fprintf(&b, "%s %s\n", k, chains[k])
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	//tcnlint:ordered keys are sorted before use
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
