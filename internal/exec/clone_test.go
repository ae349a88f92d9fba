package exec

import (
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

func TestCloneTreeIsDeepAndEquivalent(t *testing.T) {
	l, r, _ := randomTables(7, 64, 32)
	db := storage.NewMemDB("L", l, "R", r)

	orig := cloneFixtureTree()
	want, err := Collect(orig, &Ctx{DB: db})
	if err != nil {
		t.Fatalf("original: %v", err)
	}
	// The original has now been Opened and drained: its unexported iterator
	// state is dirty. A clone taken from it must still run fresh.
	cl := CloneTree(orig)
	if cl == orig {
		t.Fatalf("CloneTree returned the same root")
	}
	cj, oj := cl.(*HashJoin), orig.(*HashJoin)
	if cj.L == oj.L || cj.R == oj.R {
		t.Fatalf("children must be cloned, not shared")
	}
	if cj.L.(*Filter).Child == oj.L.(*Filter).Child {
		t.Fatalf("grandchildren must be cloned, not shared")
	}
	got, err := Collect(cl, &Ctx{DB: db})
	if err != nil {
		t.Fatalf("clone: %v", err)
	}
	if got.Len() != want.Len() || !got.SubsetOf(want) {
		t.Fatalf("clone returned %d rows, original %d", got.Len(), want.Len())
	}
}

// TestCloneTreeConcurrentExecutions is the plan-cache usage pattern: one
// cached tree, many concurrent executions, each over its own clone.
func TestCloneTreeConcurrentExecutions(t *testing.T) {
	l, r, _ := randomTables(7, 64, 32)
	db := storage.NewMemDB("L", l, "R", r)
	cached := cloneFixtureTree()
	want, err := Collect(CloneTree(cached), &Ctx{DB: db})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := Collect(CloneTree(cached), &Ctx{DB: db})
			if err != nil {
				errs <- err
				return
			}
			if got.Len() != want.Len() || !got.SubsetOf(want) {
				errs <- errMismatch
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent clone execution diverged" }

func TestCloneTreeNil(t *testing.T) {
	if CloneTree(nil) != nil {
		t.Fatalf("CloneTree(nil) must be nil")
	}
	if CloneVecTree(nil) != nil {
		t.Fatalf("CloneVecTree(nil) must be nil")
	}
}

// TestCloneTreeVecPipeline checks cloning recurses through VecOp fields:
// the adapter, the batch filter chain and the scan must all be fresh, and
// the clone of a drained pipeline must still run.
func TestCloneTreeVecPipeline(t *testing.T) {
	l, r, _ := randomTables(3, 48, 24)
	db := storage.NewMemDB("L", l, "R", r)
	k := fieldKernel("b", adl.Lt, value.Int(5))
	orig := &VecHashJoin{Kind: adl.Semi,
		L:     &VecFilter{Src: &VecScan{Extent: "L", Attrs: []string{"b"}, Batch: 8}, Var: "x", Kernels: []VecCmp{k}},
		R:     &VecAdapter{Src: &VecScan{Extent: "R"}},
		LAttr: "b",
		LKey:  NewScalar(adl.Dot(adl.V("x"), "b"), "x"),
		RKey:  NewScalar(adl.Dot(adl.V("y"), "d"), "y"),
	}
	want, err := Collect(orig, &Ctx{DB: db})
	if err != nil {
		t.Fatalf("original: %v", err)
	}
	cl := CloneTree(orig).(*VecHashJoin)
	if cl == orig || cl.L == orig.L || cl.R == orig.R {
		t.Fatalf("vec join and its inputs must be cloned, not shared")
	}
	if cl.R.(*VecAdapter).Src == orig.R.(*VecAdapter).Src {
		t.Fatalf("vec pipeline under the adapter must be cloned, not shared")
	}
	if cl.L.(*VecFilter).Src == orig.L.(*VecFilter).Src {
		t.Fatalf("vec scan must be cloned, not shared")
	}
	got, err := Collect(cl, &Ctx{DB: db})
	if err != nil {
		t.Fatalf("clone: %v", err)
	}
	if !value.Equal(got, want) {
		t.Fatalf("clone returned %d rows, original %d", got.Len(), want.Len())
	}
}

// BenchmarkCloneTree measures the per-execution cost of cloning a cached
// plan — the hot edge of the serving path — over a representative scalar
// tree and a batch pipeline.
func BenchmarkCloneTree(b *testing.B) {
	b.Run("scalar", func(b *testing.B) {
		tree := cloneFixtureTree()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if CloneTree(tree) == nil {
				b.Fatal("nil clone")
			}
		}
	})
	b.Run("vectorized", func(b *testing.B) {
		k := fieldKernel("b", adl.Lt, value.Int(5))
		tree := Operator(&VecHashJoin{Kind: adl.Semi,
			L:     &VecFilter{Src: &VecScan{Extent: "L", Attrs: []string{"b"}}, Var: "x", Kernels: []VecCmp{k}},
			R:     &VecAdapter{Src: &VecScan{Extent: "R"}},
			LAttr: "b",
			LKey:  NewScalar(adl.Dot(adl.V("x"), "b"), "x"),
			RKey:  NewScalar(adl.Dot(adl.V("y"), "d"), "y"),
		})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if CloneTree(tree) == nil {
				b.Fatal("nil clone")
			}
		}
	})
}
