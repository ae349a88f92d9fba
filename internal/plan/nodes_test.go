package plan

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"sort"
	"strings"
	"testing"

	"repro/internal/adl"
	"repro/internal/exec"
	"repro/internal/value"
)

// unplannedNodes are the exec node types no plan of the planner holds, each
// with the reason it stays in the tree.
var unplannedNodes = map[string]string{
	// PNHL is the paper's §6.2 algorithm under a memory budget; experiment
	// B4 builds it to measure that budget. Assembly is the pointer-based
	// materialize of [BlMG93]; no translation or rule produces a materialize,
	// and experiment B5 builds it to measure it against the value hash join.
	"PNHL":     "built by experiment B4 only",
	"Assembly": "built by experiment B5 only",
}

// receiverTypes lists the exported types of dir's non-test files that carry
// the method named method, sorted: the way make loc counts the exec node
// types (Open) and the ADL node kinds (exprNode).
func receiverTypes(t *testing.T, dir, method string) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || fn.Name.Name != method {
					continue
				}
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
					seen[id.Name] = true
				}
			}
		}
	}
	var names []string
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestEveryNodeIsPlanned: every exec node type is one the planner builds —
// it appears in a plan of the golden corpus or of one expression per shape
// the goldens lack, planned with and without statistics — unless
// unplannedNodes says why not.
// An operator the planner cannot pick is dead code.
func TestEveryNodeIsPlanned(t *testing.T) {
	pred := func(v, attr string, op adl.CmpOp, c int64) adl.Expr {
		return adl.CmpE(op, adl.Dot(adl.V(v), attr), adl.CInt(c))
	}
	// shapeStats price the extra shapes: X large, and a hash index on X.a.
	shapeStats := fakeStatistics{
		rows: map[string]int{"X": 100000},
		ndv:  map[string]int{"X.a": 50000},
		idx:  map[string]string{"X.a": "hash"},
	}
	shapes := map[string]adl.Expr{
		"index":    adl.Sel("x", pred("x", "a", adl.Eq, 7), adl.T("X")),
		"filter":   adl.Sel("u", pred("u", "k", adl.Lt, 3), adl.Mu("c", adl.T("X"))),
		"columns":  adl.Sel("x", pred("x", "b", adl.Lt, 10), adl.T("X")),
		"unnest":   adl.Mu("c", adl.T("X")),
		"nest":     adl.Nu(adl.T("X"), "g", "b"),
		"flatten":  adl.Flat(adl.MapE("x", adl.Dot(adl.V("x"), "c"), adl.T("X"))),
		"map":      adl.MapE("x", adl.Tup("a", adl.Dot(adl.V("x"), "a")), adl.T("X")),
		"let":      adl.LetE("k", adl.CInt(3), adl.Sel("x", adl.EqE(adl.Dot(adl.V("x"), "b"), adl.V("k")), adl.T("X"))),
		"fallback": adl.C(value.NewSet(value.NewTuple("a", value.Int(1)))),
	}
	corpus := map[string]goldenCase{}
	for name, c := range goldenCases() {
		corpus[name] = c
	}
	for name, e := range shapes {
		corpus[name] = goldenCase{Config{Statistics: shapeStats}, e}
	}

	planned := map[string]bool{}
	var walk func(op exec.Operator)
	walk = func(op exec.Operator) {
		planned[strings.TrimPrefix(fmt.Sprintf("%T", op), "*exec.")] = true
		_, children := describe(op, nil)
		for _, c := range children {
			walk(c)
		}
	}
	for _, c := range corpus {
		withStats := c.cfg.Statistics
		if withStats == nil {
			withStats = goldenStats
		}
		for _, stats := range []Statistics{withStats, nil} {
			cfg := c.cfg
			cfg.Statistics = stats
			walk(cfg.Plan(c.expr).Root)
		}
	}

	types := receiverTypes(t, "../exec", "Open")
	if len(types) < 16 { // the 16 node types make loc counts
		t.Fatalf("found %d exec node types, want the whole operator set", len(types))
	}
	for _, name := range types {
		if _, exempt := unplannedNodes[name]; exempt {
			if planned[name] {
				t.Errorf("%s is planned now: drop it from unplannedNodes", name)
			}
			continue
		}
		if !planned[name] {
			t.Errorf("no plan of the corpus holds a %s: plan it, delete it, or say in unplannedNodes why it stays", name)
		}
	}
}
