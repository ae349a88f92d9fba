package plan

import (
	"strings"
	"testing"

	"repro/internal/adl"
	"repro/internal/bench"
	"repro/internal/eval"
	"repro/internal/exec"
	"repro/internal/rewrite"
	"repro/internal/translate"
	"repro/internal/value"
)

// pipeline runs OOSQL source through the full stack: parse → typecheck/
// translate → optimize → plan → execute, returning both the physically
// executed result and the nested-loop reference result.
func pipeline(t *testing.T, src string, cfg bench.Config) (*value.Set, *value.Set, exec.Operator) {
	t.Helper()
	st := bench.Generate(cfg)
	e, _, err := translate.Parse(src, st.Catalog())
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	want, err := eval.EvalSet(e, nil, st)
	if err != nil {
		t.Fatalf("reference eval: %v", err)
	}
	res := rewrite.Optimize(e, rewrite.NewContext(st.Catalog()))
	op := Compile(res.Expr)
	got, err := exec.Collect(op, &exec.Ctx{DB: st})
	if err != nil {
		t.Fatalf("physical exec of %s: %v", res.Expr, err)
	}
	return got, want, op
}

func TestPipelinePaperQueries(t *testing.T) {
	queries := map[string]string{
		"EQ1": `select (sname = s.sname,
		                pnames = select p.pname from p in s.parts_supplied where p.color = "red")
		        from s in SUPPLIER`,
		"EQ2": `select d from d in (select e from e in DELIVERY where e.supplier.sname = "supplier-1")
		        where d.date = 940101`,
		"EQ3b": `select d from d in DELIVERY
		         where exists x in (select s from s in d.supply where s.part.color = "red")`,
		"EQ4": `select s.eid from s in SUPPLIER
		        where exists z in s.parts_supplied : not exists p in PART : z = p`,
		"EQ5": `select s from s in SUPPLIER
		        where exists x in s.parts_supplied : exists p in PART : x = p and p.color = "red"`,
		"EQ6": `select (sname = s.sname,
		                ps = select p from p in PART where p in s.parts_supplied)
		        from s in SUPPLIER`,
		"count": `select s.sname from s in SUPPLIER
		          where count(Y') = 2
		          with Y' = select p from p in PART where p in s.parts_supplied`,
	}
	cfg := bench.Config{Suppliers: 25, Parts: 30, Fanout: 4, EmptyFrac: 0.2,
		Deliveries: 10, Seed: 5}
	for name, src := range queries {
		t.Run(name, func(t *testing.T) {
			qcfg := cfg
			if name == "EQ4" {
				// EQ4 looks for referential-integrity violations; it
				// compares identities without navigating, so dangling
				// references are safe — and the point of the query.
				qcfg.DanglingFrac = 0.15
			}
			got, want, _ := pipeline(t, src, qcfg)
			if !value.Equal(got, want) {
				t.Fatalf("physical result differs from reference:\n got  %v\n want %v", got, want)
			}
		})
	}
}

func TestPlannerChoosesSetProbeForEQ5(t *testing.T) {
	st := bench.Generate(bench.Config{Suppliers: 10, Parts: 10, Seed: 3})
	e, _, err := translate.Parse(`
		select s from s in SUPPLIER
		where exists x in s.parts_supplied : exists p in PART : x = p and p.color = "red"`,
		st.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	res := rewrite.Optimize(e, rewrite.NewContext(st.Catalog()))
	op := Compile(res.Expr)
	if hj, ok := op.(*exec.HashJoin); !ok || hj.In != "parts" {
		t.Errorf("EQ5 should plan a HashJoin on membership in .parts, got:\n%s", Explain(op))
	}
}

func TestPlannerChoosesHashJoinForEquiKeys(t *testing.T) {
	j := adl.JoinE(adl.T("X"), "x", "y",
		adl.EqE(adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "d")), adl.T("Y"))
	op := Compile(j)
	if _, ok := op.(*exec.HashJoin); !ok {
		t.Errorf("equi join should plan a HashJoin, got %T", op)
	}
	// Composite keys plus residual.
	j2 := adl.JoinE(adl.T("X"), "x", "y", adl.AndE(
		adl.EqE(adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "d")),
		adl.EqE(adl.Dot(adl.V("x"), "b"), adl.Dot(adl.V("y"), "e")),
		adl.CmpE(adl.Lt, adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "e"))), adl.T("Y"))
	op2 := Compile(j2)
	hj, ok := op2.(*exec.HashJoin)
	if !ok {
		t.Fatalf("composite equi join should plan a HashJoin, got %T", op2)
	}
	if hj.Residual == nil {
		t.Errorf("residual predicate lost")
	}
	// Non-equi predicates fall back to NL.
	j3 := adl.JoinE(adl.T("X"), "x", "y",
		adl.CmpE(adl.Lt, adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "d")), adl.T("Y"))
	if _, ok := Compile(j3).(*exec.NLJoin); !ok {
		t.Errorf("theta join should plan an NLJoin")
	}
	// EXISTS-style predicates referencing both vars in one conjunct: NL.
	j4 := adl.SemiJoin(adl.T("X"), "x", "y",
		adl.Ex("z", adl.Dot(adl.V("x"), "c"), adl.EqE(adl.V("z"), adl.V("y"))), adl.T("Y"))
	if _, ok := Compile(j4).(*exec.NLJoin); !ok {
		t.Errorf("quantified join predicate should plan an NLJoin")
	}
}

func TestPlannerLetBecomesLetOp(t *testing.T) {
	e := adl.LetE("v", adl.T("PART"), adl.V("v"))
	op, ok := Compile(e).(*exec.LetOp)
	if !ok {
		t.Fatalf("let should plan a LetOp, got %T", Compile(e))
	}
	// The body (a bare variable) falls back to the interpreter.
	if _, ok := op.Child.(*exec.ExprScan); !ok {
		t.Errorf("let body should fall back to ExprScan, got %T", op.Child)
	}
	// And it executes correctly.
	st := bench.Generate(bench.Config{Suppliers: 3, Parts: 4, Seed: 2})
	got, err := exec.Collect(op, &exec.Ctx{DB: st})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := st.Table("PART")
	if !value.Equal(got, want) {
		t.Errorf("LetOp result = %v", got)
	}
}

func TestPlannerFallbackForScalarShapes(t *testing.T) {
	// A quantifier at plan level has no physical counterpart.
	e := adl.Ex("x", adl.T("PART"), adl.CBool(true))
	if _, ok := Compile(e).(*exec.ExprScan); !ok {
		t.Errorf("quantifier should fall back to ExprScan")
	}
}

func TestCorrelatedOperandsViaEnv(t *testing.T) {
	// A plan fragment with a free variable executes under a caller-supplied
	// environment (the nested-loop boundary).
	st := bench.Generate(bench.Config{Suppliers: 5, Parts: 8, Seed: 11})
	inner := adl.Sel("p",
		adl.CmpE(adl.In, adl.SubT(adl.V("p"), "pid"), adl.Dot(adl.V("s"), "parts")),
		adl.T("PART"))
	sup, err := st.Table("SUPPLIER")
	if err != nil {
		t.Fatal(err)
	}
	op := Compile(inner)
	for _, srow := range sup.Elems() {
		env := (*eval.Env)(nil).Bind("s", srow)
		got, err := exec.Collect(op, &exec.Ctx{DB: st, Env: env})
		if err != nil {
			t.Fatal(err)
		}
		want, err := eval.EvalSet(inner, env, st)
		if err != nil {
			t.Fatal(err)
		}
		if !value.Equal(got, want) {
			t.Fatalf("correlated fragment differs for %v", srow)
		}
	}
}

func TestExplainRendersPlan(t *testing.T) {
	st := bench.Generate(bench.Config{Suppliers: 5, Parts: 5, Seed: 13})
	e, _, err := translate.Parse(`
		select s from s in SUPPLIER
		where exists x in s.parts_supplied : exists p in PART : x = p`, st.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	res := rewrite.Optimize(e, rewrite.NewContext(st.Catalog()))
	out := Explain(Compile(res.Expr))
	for _, want := range []string{"HashJoin[⋉ on p[pid] ∈ .parts]", "Scan(SUPPLIER)", "Scan(PART)"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

// inflated reports a thousand times the row counts of the statistics it
// wraps, so that the cost model prices every extent as a large one: the way
// a test forces the set-oriented operators at any scale.
type inflated struct{ Statistics }

func (s inflated) RowCount(extent string) int {
	n := s.Statistics.RowCount(extent)
	if n > 0 {
		n *= 1000
	}
	return n
}

// TestPhysicalEquivalenceRandomized stresses the whole stack over random
// databases and all rewrite templates used in the rewrite package.
func TestPhysicalEquivalenceRandomized(t *testing.T) {
	srcs := []string{
		`select s.sname from s in SUPPLIER
		 where s.parts_supplied superset
		       flatten(select t.parts_supplied from t in SUPPLIER where t.sname = "supplier-1")`,
		`select s from s in SUPPLIER
		 where count(Y') = 0
		 with Y' = select p from p in PART where p in s.parts_supplied`,
		`select (n = s.sname, k = count(s.parts_supplied)) from s in SUPPLIER
		 where exists p in PART : p in s.parts_supplied and p.price > 50`,
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := bench.Config{Suppliers: 15, Parts: 12, Fanout: 3,
			EmptyFrac: 0.2, Seed: seed}
		for qi, src := range srcs {
			got, want, _ := pipeline(t, src, cfg)
			if !value.Equal(got, want) {
				t.Fatalf("seed %d query %d: physical ≠ reference", seed, qi)
			}
		}
	}
}

// TestInflatedEquivalenceRandomized mirrors the randomized stress test with
// the cost model: for every seed and query, the plan made without
// statistics, the plan priced on inflated statistics and the reference
// interpreter must agree.
func TestInflatedEquivalenceRandomized(t *testing.T) {
	srcs := []string{
		`select s from s in SUPPLIER
		 where exists x in s.parts_supplied : exists p in PART : x = p and p.color = "red"`,
		`select s.eid from s in SUPPLIER
		 where exists z in s.parts_supplied : not exists p in PART : z = p`,
		`select (n = s.sname, k = count(s.parts_supplied)) from s in SUPPLIER
		 where exists p in PART : p in s.parts_supplied and p.price > 50`,
		`select s.sname from s in SUPPLIER
		 where s.parts_supplied superset
		       flatten(select t.parts_supplied from t in SUPPLIER where t.sname = "supplier-1")`,
	}
	for seed := int64(1); seed <= 5; seed++ {
		st := bench.Generate(bench.Config{Suppliers: 40, Parts: 30, Fanout: 4,
			EmptyFrac: 0.2, DanglingFrac: 0.1, Seed: seed})
		for qi, src := range srcs {
			e, _, err := translate.Parse(src, st.Catalog())
			if err != nil {
				t.Fatalf("seed %d query %d: translate: %v", seed, qi, err)
			}
			want, err := eval.EvalSet(e, nil, st)
			if err != nil {
				t.Fatalf("seed %d query %d: reference eval: %v", seed, qi, err)
			}
			res := rewrite.Optimize(e, rewrite.NewContext(st.Catalog()))

			defaultGot, err := exec.Collect(Compile(res.Expr), &exec.Ctx{DB: st})
			if err != nil {
				t.Fatalf("seed %d query %d: exec: %v", seed, qi, err)
			}
			iop := Config{Statistics: inflated{st.Analyze()}}.Compile(res.Expr)
			inflatedGot, err := exec.Collect(iop, &exec.Ctx{DB: st})
			if err != nil {
				t.Fatalf("seed %d query %d: inflated exec: %v", seed, qi, err)
			}
			if !value.Equal(defaultGot, want) {
				t.Fatalf("seed %d query %d: plan ≠ reference", seed, qi)
			}
			if !value.Equal(inflatedGot, want) {
				t.Fatalf("seed %d query %d: inflated plan ≠ reference:\n got  %v\n want %v\n%s",
					seed, qi, inflatedGot, want, Explain(iop))
			}
		}
	}
}
