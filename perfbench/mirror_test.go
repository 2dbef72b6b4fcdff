package main

import (
	"crypto/sha256"
	"encoding/hex"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mirroredRunners pins the source of every experiments function whose
// cell set-up workloads.go mirrors (buildLeafSpine, buildTestbed,
// buildDCQCN, leafSpineConfig, leafSpinePlan, testbedPlan), by a hash of
// its declaration. The mirrors call DefaultLeafSpine and the other
// constructors the runners call, so those need no pin. setup_s times the
// mirror, not the runner. Every run's counting run catches a runner
// change that alters outputs or engine counts; this catches one that does
// not, such as a faster set-up. When it fails, carry the runner's change
// into its mirror, then update the pin to the hash the failure reports.
var mirroredRunners = map[string]string{
	"RunLeafSpine":              "60a2c9bed19731ce",
	"runLeafSpineSweep":         "707fd2e925c96946",
	"RunFig10":                  "37e8585dcbc2d28d",
	"LeafSpineSweepConfig.base": "375789de9c9e8d5a",
	"RunTestbedFCT":             "10517b8705f92e94",
	"runTestbedSweep":           "16b9f39e7dcf2d3b",
	"RunDCQCNMarking":           "71120156d339199a",
}

func TestMirroredRunnersUnchanged(t *testing.T) {
	dir := filepath.Join("..", "internal", "experiments")
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				name = receiverType(fn.Recv.List[0].Type) + "." + name
			}
			if _, pinned := mirroredRunners[name]; pinned {
				body := src[fset.Position(fn.Pos()).Offset:fset.Position(fn.End()).Offset]
				sum := sha256.Sum256(body)
				got[name] = hex.EncodeToString(sum[:8])
			}
		}
	}
	for name, want := range mirroredRunners {
		switch h, ok := got[name]; {
		case !ok:
			t.Errorf("experiments.%s is gone; workloads.go mirrors it", name)
		case h != want:
			t.Errorf("experiments.%s changed (hash %s, pinned %s): carry the change into its mirror in workloads.go, then pin %s", name, h, want, h)
		}
	}
}

// receiverType names a method receiver's type without its pointer.
func receiverType(e ast.Expr) string {
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
