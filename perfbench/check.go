package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// CellOutput is what one simulated cell reports to a figure: FCT
// summaries and loss/marking tallies for the FCT cells, fairness and
// goodput for the DCQCN cell. Fields a cell does not produce are zero;
// Marks is -1 where the runner does not report it.
type CellOutput struct {
	Flows         int     `json:"flows,omitempty"`
	Unfinished    int     `json:"unfinished"`
	AvgAllNs      int64   `json:"avg_all_ns,omitempty"`
	AvgSmallNs    int64   `json:"avg_small_ns,omitempty"`
	P99SmallNs    int64   `json:"p99_small_ns,omitempty"`
	AvgLargeNs    int64   `json:"avg_large_ns,omitempty"`
	Timeouts      int     `json:"timeouts"`
	TimeoutsSmall int     `json:"timeouts_small"`
	Drops         int     `json:"drops"`
	Marks         int64   `json:"marks"`
	Jain          float64 `json:"jain,omitempty"`
	AggGbps       float64 `json:"agg_gbps,omitempty"`
	CNPs          int     `json:"cnps,omitempty"`
}

// Outputs is one repetition's simulated result: every cell, plus the
// final digest of every fingerprint chain when the workload fingerprints.
type Outputs struct {
	Cells  []CellOutput `json:"cells"`
	Chains []string     `json:"chains,omitempty"`
}

// PortWork is the per-port work of a repetition, counted on the built
// cells in the traced run.
type PortWork struct {
	Hops  int64 `json:"hops"`
	Drops int64 `json:"drops"`
	Marks int64 `json:"marks"`
}

// Reference is one recorded cell input and its result. For the FCT
// workloads it is one entry of the workload's cell table (see
// "Choosing FCT cells" in workloads.go): PlanBytes, AllocBytes and Events
// are what the entry was chosen on. For dcqcn it is the result for one
// seed.
type Reference struct {
	Seed       int64    `json:"runner_seed"`
	PlanBytes  int64    `json:"plan_bytes,omitempty"`
	AllocBytes uint64   `json:"alloc_bytes"`
	Events     uint64   `json:"events"`
	Outputs    Outputs  `json:"outputs"`
	Ports      PortWork `json:"ports"`
}

//go:embed reference.json
var referenceJSON []byte

// references maps workload → recorded cells, in table order.
type references map[string][]Reference

func loadReferences() (references, error) {
	refs := references{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// cellFor returns the inputs --seed selects for w, and their recorded
// result when there is one. An FCT workload runs entry (seed-1) mod n of
// its n-cell table, so every seed has a reference; dcqcn runs the seed
// itself, with a reference for the recorded seeds only.
func (r references) cellFor(w *workloadSpec, seed int64) (input, *Reference, error) {
	cells := r[w.name]
	if w.flows == 0 {
		for i := range cells {
			if cells[i].Seed == seed {
				return input{seed: seed}, &cells[i], nil
			}
		}
		return input{seed: seed}, nil, nil
	}
	if len(cells) == 0 {
		return input{}, nil, fmt.Errorf("reference.json holds no cells for %s", w.name)
	}
	n := int64(len(cells))
	ref := &cells[((seed-1)%n+n)%n]
	return input{seed: ref.Seed, flows: w.flows, bytes: ref.PlanBytes}, ref, nil
}

// diffOutputs describes every field where got differs from want, or
// returns "" when they are identical. Floats compare exactly: the
// simulator is deterministic, so any drift is a behaviour change.
func diffOutputs(want, got Outputs) string {
	var d []string
	if len(want.Cells) != len(got.Cells) {
		d = append(d, fmt.Sprintf("cells: want %d, got %d", len(want.Cells), len(got.Cells)))
	} else {
		for i := range want.Cells {
			w, g := reflect.ValueOf(want.Cells[i]), reflect.ValueOf(got.Cells[i])
			for f := 0; f < w.NumField(); f++ {
				if !reflect.DeepEqual(w.Field(f).Interface(), g.Field(f).Interface()) {
					d = append(d, fmt.Sprintf("cell %d %s: want %v, got %v",
						i, w.Type().Field(f).Name, w.Field(f).Interface(), g.Field(f).Interface()))
				}
			}
		}
	}
	if !reflect.DeepEqual(want.Chains, got.Chains) {
		d = append(d, fmt.Sprintf("fingerprint chains differ (%d want, %d got)", len(want.Chains), len(got.Chains)))
	}
	return strings.Join(d, "; ")
}

// checkOutputs validates a repetition's outputs: against the reference
// when one is recorded for the seed, otherwise against the run's first
// repetition plus the rule that every flow finished.
func checkOutputs(ref *Reference, first *Outputs, got Outputs) string {
	if ref != nil {
		return diffOutputs(ref.Outputs, got)
	}
	for i, c := range got.Cells {
		if c.Unfinished != 0 {
			return fmt.Sprintf("cell %d: %d flows unfinished", i, c.Unfinished)
		}
	}
	if first != nil {
		return diffOutputs(*first, got)
	}
	return ""
}

// Machine is the record printed with every result. Results from runs
// whose records differ are not comparable.
type Machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	LoadBefore string `json:"loadavg_before"`
	LoadAfter  string `json:"loadavg_after,omitempty"`
	// StealS is the CPU time the hypervisor took from this machine's
	// CPUs during the run, summed over CPUs. On a shared host, wall time
	// grows with it.
	StealS   float64 `json:"steal_s"`
	Platform string  `json:"platform"`
}

func machineRecord(root string) Machine {
	return Machine{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
		SourceHash: sourceHash(root),
		LoadBefore: loadAvg(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealTicks returns the machine-wide steal time from /proc/stat, in
// USER_HZ ticks (1/100 s), or 0 when it cannot be read.
func stealTicks() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseUint(f[8], 10, 64)
	return n
}

func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// gitCommit reads HEAD from the checkout's .git directory without running
// git; a checkout that is not a repository reports "none" and is
// identified by its source hash instead.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// sourceHash is a SHA-256 over the path and contents of every Go source
// and go.mod file under root (build output excluded), in path order.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
