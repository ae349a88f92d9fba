package exec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"sync"
	"testing"

	"repro/internal/adl"
	"repro/internal/storage"
	"repro/internal/value"
)

func cloneFixtureTree() Operator {
	return &HashJoin{
		Kind: adl.Semi,
		L: &Filter{
			Child: &Scan{Table: "L"},
			Var:   "x",
			Pred:  NewScalar(adl.EqE(adl.Dot(adl.V("x"), "b"), adl.Dot(adl.V("x"), "b")), "x"),
		},
		R:    &Scan{Table: "R"},
		LVar: "x", RVar: "y",
		LKey: NewScalar(adl.Dot(adl.V("x"), "b"), "x"),
		RKey: NewScalar(adl.Dot(adl.V("y"), "d"), "y"),
	}
}

// vecFixtureTree is a parallel hash join over a parallel ColumnScan and a
// Filter: the two operators that start goroutines of their own, one above
// the other.
func vecFixtureTree() Operator {
	k := fieldKernel("b", adl.Lt, value.Int(5))
	return &HashJoin{Kind: adl.Semi, Workers: 3,
		L: &ColumnScan{Extent: "L", Attrs: []string{"b"}, Var: "x", Kernels: []VecCmp{k}, Workers: 3},
		R: &Filter{Child: &ColumnScan{Extent: "R"}, Var: "y",
			Pred: NewScalar(adl.CBool(true), "y")},
		LVar: "x", RVar: "y",
		LKey: NewScalar(adl.Dot(adl.V("x"), "b"), "x"),
		RKey: NewScalar(adl.Dot(adl.V("y"), "d"), "y"),
	}
}

// TestConcurrentExecutions is the plan-cache usage pattern: one cached tree,
// many concurrent executions of that same root, plain and instrumented.
func TestConcurrentExecutions(t *testing.T) {
	l, r, _ := randomTables(7, 64, 32)
	db := storage.NewMemDB("L", l, "R", r)
	for name, cached := range map[string]Operator{"scalar": cloneFixtureTree(), "vectorized": vecFixtureTree()} {
		want, err := Collect(cached, &Ctx{DB: db})
		if err != nil {
			t.Fatalf("%s: reference run: %v", name, err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				root := cached
				if i%2 == 1 {
					root, _ = Instrument(cached)
				}
				got, err := Collect(root, &Ctx{DB: db})
				if err != nil {
					errs <- err
					return
				}
				if !value.Equal(got, want) {
					errs <- errMismatch
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent execution of one tree diverged" }

// TestInstrumentCountsEveryNode checks the tally of one run: every operator
// of the tree, blocking or streaming, is counted under its own node.
func TestInstrumentCountsEveryNode(t *testing.T) {
	l, r, _ := randomTables(7, 64, 32)
	db := storage.NewMemDB("L", l, "R", r)
	tree := cloneFixtureTree().(*HashJoin)
	root, tally := Instrument(tree)
	got, err := Collect(root, &Ctx{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	rows := tally.Rows()
	want := map[Operator]int64{tree: int64(got.Len()), tree.L: int64(l.Len()),
		tree.L.(*Filter).Child: int64(l.Len()), tree.R: int64(r.Len())}
	if len(rows) != len(want) {
		t.Fatalf("tally has %d nodes, want %d", len(rows), len(want))
	}
	for op, n := range want {
		if rows[op] != n {
			t.Errorf("%T: counted %d rows, want %d", op, rows[op], n)
		}
	}
}

// TestNodesHoldNoRunState checks the shape that makes a plan shareable: every
// type with an Open(*Ctx) method declares it on the value
// receiver — Open works on a copy — and has no unexported field to hide run
// state in.
func TestNodesHoldNoRunState(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[string]bool{}
	structs := map[string]*ast.StructType{}
	for _, f := range pkgs["exec"].Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.TypeSpec:
				if st, ok := d.Type.(*ast.StructType); ok {
					structs[d.Name.Name] = st
				}
			case *ast.FuncDecl:
				if d.Recv == nil || d.Name.Name != "Open" {
					break
				}
				recv, ok := d.Recv.List[0].Type.(*ast.Ident)
				if !ok {
					t.Errorf("%s is not declared on a value receiver", d.Name.Name)
					break
				}
				nodes[recv.Name] = true
			}
			return true
		})
	}
	if len(nodes) < 17 { // the 16 exported node types and tallied
		t.Fatalf("found %d node types, want the whole operator set", len(nodes))
	}
	for name := range nodes {
		for _, f := range structs[name].Fields.List {
			for _, id := range f.Names {
				if !id.IsExported() {
					t.Errorf("node %s has the unexported field %s", name, id.Name)
				}
			}
			if len(f.Names) == 0 {
				t.Errorf("node %s embeds a type", name)
			}
		}
	}
}

// TestOneGoStatement checks the shape that keeps every parallel run inside
// its Open: non-test code of the package starts goroutines in one place,
// inShares, which waits for them, and declares no channel to hand rows or
// signals past Open.
func TestOneGoStatement(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var goIn []string
	for name, f := range pkgs["exec"].Files {
		for _, d := range f.Decls {
			fn, _ := d.(*ast.FuncDecl)
			ast.Inspect(d, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.GoStmt:
					if fn == nil {
						goIn = append(goIn, name)
					} else {
						goIn = append(goIn, fn.Name.Name)
					}
				case *ast.ChanType:
					t.Errorf("%s declares a channel type", name)
				}
				return true
			})
		}
	}
	if len(goIn) != 1 || goIn[0] != "inShares" {
		t.Errorf("go statements in %v, want one, in inShares", goIn)
	}
}
