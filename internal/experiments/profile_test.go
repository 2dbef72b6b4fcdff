package experiments

import (
	"bytes"
	"strings"
	"testing"

	"tcn/internal/obs/prof"
)

// TestFig6ProfileStageFrames pins the port stage frames in a profiled fig6
// cell: enqueue work folds under port:X;enqueue and dequeue work under
// port:X;dequeue, whether the transmitter was kicked from Send or from
// its own completion event, and no folded stack repeats a frame.
func TestFig6ProfileStageFrames(t *testing.T) {
	p := prof.New(prof.Config{})
	RunFig6(SweepConfig{ //tcnlint:walltaint the profiler has no wall clock (Config.Wall nil); it only observes
		Loads:   []float64{0.7},
		Flows:   100,
		Seed:    3,
		Schemes: []Scheme{SchemeTCN},
		Obs:     &Obs{Profiler: p},
	})
	var buf bytes.Buffer
	if err := p.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	stages := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		stack, _, _ := strings.Cut(line, " ")
		frames := strings.Split(stack, ";")
		seen := map[string]bool{}
		for i, f := range frames {
			if seen[f] {
				t.Errorf("stack repeats frame %q: %s", f, stack)
			}
			seen[f] = true
			if f == "enqueue" || f == "dequeue" {
				if i == 0 || !strings.HasPrefix(frames[i-1], "port:") {
					t.Errorf("%s frame not directly under a port: %s", f, stack)
				}
				stages[f]++
			}
		}
	}
	if stages["enqueue"] == 0 || stages["dequeue"] == 0 {
		t.Fatalf("folded profile lacks a stage frame (enqueue stacks %d, dequeue stacks %d):\n%s",
			stages["enqueue"], stages["dequeue"], buf.String())
	}
}
