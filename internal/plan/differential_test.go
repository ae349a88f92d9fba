package plan

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adl"
	"repro/internal/eval"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/value"
)

// The differential property test: a seeded random data/query generator runs
// every physical join strategy applicable to the same logical join — serial
// and parallel, plus the cost-based optimizer's own pick — and asserts that
// all of them produce identical result sets. Run under -race (CI does) this
// also shakes the parallel operators for data races.

// genTables builds two random tables: X{a, b, c={⟨k⟩}} and Y{d, e, k}. Small
// key domains force duplicates, empty groups and dangling rows — the shapes
// the join kinds disagree on when buggy.
func genTables(rng *rand.Rand) (*value.Set, *value.Set) {
	dom := 1 + rng.Intn(8)
	x := value.EmptySet()
	for i, n := 0, rng.Intn(50); i < n; i++ {
		set := value.EmptySet()
		for j, m := 0, rng.Intn(4); j < m; j++ {
			set.Add(value.NewTuple("k", value.Int(int64(rng.Intn(dom)))))
		}
		x.Add(value.NewTuple(
			"a", value.Int(int64(rng.Intn(dom))),
			"b", value.Int(int64(rng.Intn(20))),
			"c", set,
		))
	}
	y := value.EmptySet()
	for i, n := 0, rng.Intn(50); i < n; i++ {
		y.Add(value.NewTuple(
			"d", value.Int(int64(rng.Intn(dom))),
			"e", value.Int(int64(rng.Intn(20))),
			"k", value.Int(int64(rng.Intn(dom))),
		))
	}
	return x, y
}

// tableStatistics derives a Statistics feed from the in-memory tables so the
// optimizer arm runs its cost model (row counts only; NDVs stay defaults).
func tableStatistics(x, y *value.Set) Statistics {
	return fakeStatistics{rows: map[string]int{"X": x.Len(), "Y": y.Len()}}
}

func collect(t *testing.T, op exec.Operator, db eval.DB) *value.Set {
	t.Helper()
	got, err := exec.Collect(op, &exec.Ctx{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestDifferentialEquiJoinStrategies(t *testing.T) {
	kinds := []adl.JoinKind{adl.Inner, adl.Semi, adl.Anti, adl.NestJ, adl.Outer}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x, y := genTables(rng)
		db := storage.NewMemDB("X", x, "Y", y)
		withResidual := seed%2 == 0
		withRFun := seed%3 == 0

		for _, kind := range kinds {
			on := adl.Expr(adl.EqE(adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "d")))
			if withResidual {
				on = adl.AndE(on,
					adl.CmpE(adl.Lt, adl.Dot(adl.V("x"), "b"), adl.Dot(adl.V("y"), "e")))
			}
			j := adl.JoinE(adl.T("X"), "x", "y", on, adl.T("Y"))
			j.Kind = kind
			if kind == adl.NestJ {
				j.As = "g"
				if withRFun {
					j.RFun = adl.SubT(adl.V("y"), "e")
				}
			}

			lk := exec.NewScalar(adl.Dot(adl.V("x"), "a"), "x")
			rk := exec.NewScalar(adl.Dot(adl.V("y"), "d"), "y")
			var res *exec.Scalar
			if withResidual {
				s := exec.NewScalar(
					adl.CmpE(adl.Lt, adl.Dot(adl.V("x"), "b"), adl.Dot(adl.V("y"), "e")),
					"x", "y")
				res = &s
			}
			var rfun *exec.Scalar
			if j.RFun != nil {
				s := exec.NewScalar(j.RFun, "x", "y")
				rfun = &s
			}
			scanX := func() exec.Operator { return &exec.Scan{Table: "X"} }
			scanY := func() exec.Operator { return &exec.Scan{Table: "Y"} }

			strategies := map[string]exec.Operator{
				"nl": &exec.NLJoin{Kind: kind, L: scanX(), R: scanY(),
					LVar: "x", RVar: "y",
					Pred: exec.NewScalar(on, "x", "y"), As: j.As, RFun: rfun},
				"hash": &exec.HashJoin{Kind: kind, L: scanX(), R: scanY(),
					LVar: "x", RVar: "y", LKey: lk, RKey: rk,
					Residual: res, As: j.As, RFun: rfun},
				"parallel3": &exec.HashJoin{Kind: kind,
					L: scanX(), R: scanY(), LVar: "x", RVar: "y",
					LKey: lk, RKey: rk, Residual: res, As: j.As, RFun: rfun,
					Workers: 3},
			}
			if kind == adl.Inner && rfun == nil {
				var resSwap *exec.Scalar
				if withResidual {
					s := exec.NewScalar(
						adl.CmpE(adl.Lt, adl.Dot(adl.V("x"), "b"), adl.Dot(adl.V("y"), "e")),
						"y", "x")
					resSwap = &s
				}
				strategies["hash-swap"] = &exec.HashJoin{Kind: kind,
					L: scanY(), R: scanX(), LVar: "y", RVar: "x",
					LKey: rk, RKey: lk, Residual: resSwap}
			}
			// The planner's own picks: without statistics and with them.
			strategies["planner"] = Compile(j)
			strategies["planner-costed"] = Config{Statistics: tableStatistics(x, y),
				Parallelism: 2}.Compile(j)

			ref := collect(t, strategies["nl"], db)
			for name, op := range strategies {
				if name == "nl" {
					continue
				}
				got := collect(t, op, db)
				if !value.Equal(got, ref) {
					t.Fatalf("seed %d kind %v residual=%v rfun=%v: %s diverges from nl:\n got  %v\n want %v",
						seed, kind, withResidual, withRFun, name, got, ref)
				}
			}
		}
	}
}

func TestDifferentialMembershipStrategies(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed + 100))
		x, y := genTables(rng)
		db := storage.NewMemDB("X", x, "Y", y)

		for _, kind := range []adl.JoinKind{adl.Semi, adl.Anti, adl.NestJ} {
			// key(y) ∈ x.c with key(y) = y[k] — the paper's EQ5/EQ6 shape.
			on := adl.CmpE(adl.In, adl.SubT(adl.V("y"), "k"), adl.Dot(adl.V("x"), "c"))
			j := adl.JoinE(adl.T("X"), "x", "y", on, adl.T("Y"))
			j.Kind = kind
			if kind == adl.NestJ {
				j.As = "g"
			}
			var rfun *exec.Scalar
			strategies := map[string]exec.Operator{
				"nl": &exec.NLJoin{Kind: kind, L: &exec.Scan{Table: "X"},
					R: &exec.Scan{Table: "Y"}, LVar: "x", RVar: "y",
					Pred: exec.NewScalar(on, "x", "y"), As: j.As, RFun: rfun},
				"setprobe": &exec.HashJoin{Kind: kind, L: &exec.Scan{Table: "X"},
					R: &exec.Scan{Table: "Y"}, In: "c",
					RKey: exec.NewScalar(adl.SubT(adl.V("y"), "k"), "y"),
					As:   j.As},
				"planner": Compile(j),
				"planner-costed": Config{Statistics: tableStatistics(x, y),
					Parallelism: 2}.Compile(j),
			}
			ref := collect(t, strategies["nl"], db)
			for name, op := range strategies {
				if name == "nl" {
					continue
				}
				got := collect(t, op, db)
				if !value.Equal(got, ref) {
					t.Fatalf("seed %d kind %v: %s diverges from nl (%s)",
						seed, kind, name, fmt.Sprintf("got %v want %v", got, ref))
				}
			}
		}
	}
}
