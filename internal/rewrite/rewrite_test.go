package rewrite

import (
	"strings"
	"testing"

	"repro/internal/adl"
	"repro/internal/bench"
	"repro/internal/eval"
	"repro/internal/types"
	"repro/internal/value"
)

// figureCtx is a context for the Figure 1/2 tables:
// X : {(a: int, c: {(d: int, e: int)})}, Y : {(d: int, e: int)}.
func figureCtx() *Context {
	de := types.NewTuple("d", types.IntType, "e", types.IntType)
	return NewStaticContext(map[string]*types.Tuple{
		"X": types.NewTuple("a", types.IntType, "c", types.NewSet(de)),
		"Y": de,
	})
}

// mustEq asserts eval-equality of two expressions on a database.
func mustEq(t *testing.T, db eval.DB, a, b adl.Expr) {
	t.Helper()
	va, err := eval.Eval(a, nil, db)
	if err != nil {
		t.Fatalf("eval(%s): %v", a, err)
	}
	vb, err := eval.Eval(b, nil, db)
	if err != nil {
		t.Fatalf("eval(%s): %v", b, err)
	}
	if !value.Equal(va, vb) {
		t.Fatalf("rewrite changed semantics:\n  original  %s = %v\n  rewritten %s = %v", a, va, b, vb)
	}
}

// relationalEngine runs the option-1 rule set.
func relationalEngine() *Engine { return NewEngine(relationalRules()) }

// TestRewritingExample1 reproduces §5.2.1 Rewriting Example 1 (SET
// MEMBERSHIP): σ[x : x.c ∈ σ[y : q](Y)](X) ⇒ X ⋉(x,y : q ∧ y = x.c) Y.
// Here x.c must be atomic for ∈; we use x.a against Y-tuples' d values via
// the correlation q ≡ y.e = x.a, membership target α-free per the paper's
// abstract q.
func TestRewritingExample1(t *testing.T) {
	// σ[x : (a = x.a) ∈ σ[y : y.e > 1](Y)](X) — the member is the unary
	// tuple (a = x.a) so that the ∈ compares tuples; q is uncorrelated here
	// but may reference x in general.
	q := adl.CmpE(adl.Gt, adl.Dot(adl.V("y"), "e"), adl.CInt(1))
	member := adl.Tup("d", adl.Dot(adl.V("x"), "a"))
	e := adl.Sel("x",
		adl.CmpE(adl.In, member, adl.Proj(adl.Sel("y", q, adl.T("Y")), "d")),
		adl.T("X"))
	// Projection is not removable by our rules; use the map-free form too:
	e2 := adl.Sel("x",
		adl.CmpE(adl.In, adl.Dot(adl.V("x"), "a"),
			adl.MapE("y", adl.Dot(adl.V("y"), "d"), adl.Sel("y", q, adl.T("Y")))),
		adl.T("X"))

	en := relationalEngine()
	got := en.Run(e2, figureCtx())
	j, ok := got.(*adl.Join)
	if !ok || j.Kind != adl.Semi {
		t.Fatalf("RE1 must yield a semijoin, got %s", got)
	}
	if !ContainsTable(j.R) {
		t.Fatalf("semijoin right operand lost the table: %s", got)
	}
	db := bench.Figure2DB()
	mustEq(t, db, e2, got)
	_ = e
}

// TestRewritingExample2 reproduces Rewriting Example 2 (SET INCLUSION):
// σ[x : σ[y : q](Y) ⊆ x.c](X) ⇒ X ▷(x,y : q ∧ y ∉ x.c) Y.
func TestRewritingExample2(t *testing.T) {
	q := adl.EqE(adl.Dot(adl.V("y"), "d"), adl.Dot(adl.V("x"), "a"))
	e := adl.Sel("x",
		adl.CmpE(adl.SubEq, adl.Sel("y", q, adl.T("Y")), adl.Dot(adl.V("x"), "c")),
		adl.T("X"))
	en := relationalEngine()
	got := en.Run(e, figureCtx())
	j, ok := got.(*adl.Join)
	if !ok || j.Kind != adl.Anti {
		t.Fatalf("RE2 must yield an antijoin, got %s", got)
	}
	// The join predicate must be q ∧ ¬(y ∈ x.c) (possibly reordered).
	on := j.On.String()
	if !strings.Contains(on, "∈ x.c)") || !strings.Contains(on, "¬") {
		t.Errorf("RE2 predicate = %s, want q ∧ y ∉ x.c", on)
	}
	mustEq(t, bench.Figure2DB(), e, got)
}

// TestRewritingExample3 reproduces Rewriting Example 3 (EXCHANGING
// QUANTIFIERS): σ[x : ∀z ∈ x.c • z ⊇ σ[y:q](Y)](X) unnests into an antijoin
// whose predicate carries ∃z ∈ x.c • ¬(y ∈ z) — the paper's
// ∄y ∈ Y′ • ∃z ∈ x.c • y ∉ z.
func TestRewritingExample3(t *testing.T) {
	// Here x.c must be a set of sets; build a dedicated DB and context.
	mk := func(vals ...int64) *value.Set {
		s := value.EmptySet()
		for _, v := range vals {
			s.Add(value.Int(v))
		}
		return s
	}
	x := value.NewSet(
		value.NewTuple("a", value.Int(1), "c", value.NewSet(mk(1, 2, 3), mk(1, 2))),
		value.NewTuple("a", value.Int(2), "c", value.NewSet(mk(3))),
		value.NewTuple("a", value.Int(3), "c", value.EmptySet()),
	)
	y := value.NewSet(
		value.NewTuple("d", value.Int(1)),
		value.NewTuple("d", value.Int(2)),
	)
	db := bench.Figure2DB()
	db.Tables["X2"] = x
	db.Tables["Y2"] = y
	ctx := NewStaticContext(map[string]*types.Tuple{
		"X2": types.NewTuple("a", types.IntType, "c", types.NewSet(types.NewSet(types.IntType))),
		"Y2": types.NewTuple("d", types.IntType),
	})

	q := adl.CmpE(adl.Le, adl.Dot(adl.V("y"), "d"), adl.CInt(2))
	sub := adl.MapE("y", adl.Dot(adl.V("y"), "d"), adl.Sel("y", q, adl.T("Y2")))
	e := adl.Sel("x",
		adl.All("z", adl.Dot(adl.V("x"), "c"),
			adl.CmpE(adl.SupEq, adl.V("z"), sub)),
		adl.T("X2"))

	en := relationalEngine()
	got := en.Run(e, ctx)
	j, ok := got.(*adl.Join)
	if !ok || j.Kind != adl.Anti {
		t.Fatalf("RE3 must yield an antijoin, got %s", got)
	}
	if !strings.Contains(j.On.String(), "∃z ∈ x.c") {
		t.Errorf("RE3 predicate must contain the exchanged inner ∃z ∈ x.c, got %s", j.On)
	}
	mustEq(t, db, e, got)
}

// TestTable1SemanticEquivalence validates every Table 1 expansion against
// the reference evaluator on the Figure 2 data, each through the relational
// engine with base-table right-hand sides.
func TestTable1SemanticEquivalence(t *testing.T) {
	db := bench.Figure2DB()
	ctx := figureCtx()
	corr := adl.EqE(adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "d"))
	sub := adl.Sel("y", corr, adl.T("Y")) // Y′ = σ[y : x.a = y.d](Y)

	preds := map[string]adl.Expr{
		"c_subeq_Y":  adl.CmpE(adl.SubEq, adl.Dot(adl.V("x"), "c"), sub),
		"c_sub_Y":    adl.CmpE(adl.Sub, adl.Dot(adl.V("x"), "c"), sub),
		"c_eq_Y":     adl.EqE(adl.Dot(adl.V("x"), "c"), sub),
		"c_supeq_Y":  adl.CmpE(adl.SupEq, adl.Dot(adl.V("x"), "c"), sub),
		"c_sup_Y":    adl.CmpE(adl.Sup, adl.Dot(adl.V("x"), "c"), sub),
		"Y_subeq_c":  adl.CmpE(adl.SubEq, sub, adl.Dot(adl.V("x"), "c")),
		"not_subeq":  adl.NotE(adl.CmpE(adl.SubEq, adl.Dot(adl.V("x"), "c"), sub)),
		"not_supeq":  adl.NotE(adl.CmpE(adl.SupEq, adl.Dot(adl.V("x"), "c"), sub)),
		"empty_eq":   adl.EqE(sub, adl.SetOf()),
		"count_zero": adl.EqE(adl.AggE(adl.Count, sub), adl.CInt(0)),
		"isect":      adl.EqE(&adl.SetOp{Op: adl.Intersect, L: adl.Dot(adl.V("x"), "c"), R: sub}, adl.SetOf()),
	}
	for name, p := range preds {
		e := adl.Sel("x", p, adl.T("X"))
		en := relationalEngine()
		got := en.Run(e, ctx)
		mustEq(t, db, e, got)
		if name == "c_supeq_Y" || name == "empty_eq" || name == "count_zero" || name == "isect" {
			// These must fully unnest into joins (⊇ and the Table 2 rows).
			if NestedTableCount(got) != 0 {
				t.Errorf("%s: still nested after rewriting: %s", name, got)
			}
		}
	}
}

// TestTable3 reproduces the paper's Table 3: the static value of P(x, ∅)
// for each set comparator, which decides whether unnesting by grouping
// loses dangling tuples.
func TestTable3(t *testing.T) {
	c := adl.Dot(adl.V("x"), "c")
	sub := adl.Sel("y", adl.CBool(true), adl.T("Y")) // stands for Y′
	rows := []struct {
		op   adl.CmpOp
		want TV
	}{
		{adl.Sub, TVFalse},     // x.c ⊂ ∅ ≡ false
		{adl.SubEq, TVUnknown}, // x.c ⊆ ∅: run-time dependent
		{adl.Eq, TVUnknown},    // x.c = ∅: run-time dependent
		{adl.SupEq, TVTrue},    // x.c ⊇ ∅ ≡ true
		{adl.Sup, TVUnknown},   // x.c ⊃ ∅: run-time dependent
		{adl.Has, TVUnknown},   // x.c ∋ ∅: run-time dependent
	}
	for _, row := range rows {
		p := adl.CmpE(row.op, c, sub)
		if got := ReduceWithEmpty(p, sub); got != row.want {
			t.Errorf("Table 3 row %s: P(x, ∅) = %s, want %s", row.op, got, row.want)
		}
	}
	// Membership: x.a ∈ ∅ is statically false (safe for grouping).
	if got := ReduceWithEmpty(adl.CmpE(adl.In, adl.Dot(adl.V("x"), "a"), sub), sub); got != TVFalse {
		t.Errorf("x.a ∈ ∅ = %v, want false", got)
	}
	// count(Y′) = 0 with Y′ = ∅ is statically true.
	if got := ReduceWithEmpty(adl.EqE(adl.AggE(adl.Count, sub), adl.CInt(0)), sub); got != TVTrue {
		t.Errorf("count(∅) = 0 should reduce to true")
	}
	// Negation flips.
	if got := ReduceWithEmpty(adl.NotE(adl.CmpE(adl.SupEq, c, sub)), sub); got != TVFalse {
		t.Errorf("¬(x.c ⊇ ∅) should be false")
	}
}

// TestComplexObjectBug reproduces Figure 2: the [GaWo87] grouping technique
// loses the dangling tuple ⟨a=2, c=∅⟩ on the subset query, the guard
// refuses to apply it, and the nestjoin strategy preserves the tuple.
func TestComplexObjectBug(t *testing.T) {
	db := bench.Figure2DB()
	ctx := figureCtx()
	sub := adl.Sel("y", adl.EqE(adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "d")), adl.T("Y"))
	query := adl.Sel("x", adl.CmpE(adl.SubEq, adl.Dot(adl.V("x"), "c"), sub), adl.T("X"))

	correct, err := eval.EvalSet(query, nil, db)
	if err != nil {
		t.Fatal(err)
	}
	if correct.Len() != 2 {
		t.Fatalf("nested-loop ground truth = %v, want 2 tuples (a=1 and a=2)", correct)
	}

	// Guarded grouping must refuse: P(x, ∅) = (x.c ⊆ ∅) is run-time
	// dependent.
	if _, ok := UnnestByGrouping(query, ctx, false); ok {
		t.Fatalf("guarded grouping must refuse the ⊆ query (Table 3 row '?')")
	}

	// Forced grouping exhibits the bug.
	buggy, ok := UnnestByGrouping(query, ctx, true)
	if !ok {
		t.Fatalf("forced grouping did not apply")
	}
	buggyRes, err := eval.EvalSet(buggy, nil, db)
	if err != nil {
		t.Fatalf("eval(%s): %v", buggy, err)
	}
	if buggyRes.Len() != 1 {
		t.Fatalf("buggy plan result = %v, want exactly the a=1 tuple", buggyRes)
	}
	lost := correct.Diff(buggyRes)
	if lost.Len() != 1 {
		t.Fatalf("lost = %v", lost)
	}
	lostTuple := lost.Elems()[0].(*value.Tuple)
	if !value.Equal(lostTuple.MustGet("a"), value.Int(2)) {
		t.Errorf("lost tuple = %v, want ⟨a=2, c=∅⟩", lostTuple)
	}

	// The nestjoin strategy handles it correctly.
	res := optimizeLifted(t, query, ctx)
	if NestedTableCount(res.Expr) != 0 {
		t.Fatalf("Optimize left nesting: %s", res.Expr)
	}
	hasNestjoin := adl.CountNodes(res.Expr, func(e adl.Expr) bool {
		j, ok := e.(*adl.Join)
		return ok && j.Kind == adl.NestJ
	})
	if hasNestjoin == 0 {
		t.Errorf("Optimize should have used the nestjoin, got %s", res.Expr)
	}
	mustEq(t, db, query, res.Expr)
}

// TestGroupingGuardAccepts checks that the guard admits grouping when
// P(x, ∅) is statically false (membership and proper-subset predicates).
func TestGroupingGuardAccepts(t *testing.T) {
	db := bench.Figure2DB()
	ctx := figureCtx()
	sub := adl.Sel("y", adl.EqE(adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "d")), adl.T("Y"))
	// P = x.c ⊂ Y′: P(x, ∅) ≡ false (Table 3 row 1).
	query := adl.Sel("x", adl.CmpE(adl.Sub, adl.Dot(adl.V("x"), "c"), sub), adl.T("X"))
	grouped, ok := UnnestByGrouping(query, ctx, false)
	if !ok {
		t.Fatalf("guard must accept ⊂ (P(x,∅) ≡ false)")
	}
	mustEq(t, db, query, grouped)
	// The rewritten plan is a flat join query: join, nest, select, project.
	if NestedTableCount(grouped) != 0 {
		t.Errorf("grouping left nesting: %s", grouped)
	}
}

// TestOptimizeEQ5MatchesPaper drives Example Query 5 end to end and expects
// the paper's exact semijoin form:
// SUPPLIER ⋉(s,p : p[pid] ∈ s.parts) σ[p : p.color = "red"](PART).
func TestOptimizeEQ5MatchesPaper(t *testing.T) {
	e := adl.Sel("s",
		adl.Ex("x", adl.Dot(adl.V("s"), "parts"),
			adl.Ex("p", adl.T("PART"),
				adl.AndE(adl.EqE(adl.V("x"), adl.SubT(adl.V("p"), "pid")),
					adl.EqE(adl.Dot(adl.V("p"), "color"), adl.CStr("red"))))),
		adl.T("SUPPLIER"))
	st := bench.Generate(bench.Config{Suppliers: 30, Parts: 40, Seed: 7})
	ctx := NewContext(st.Catalog())
	res := optimizeLifted(t, e, ctx)
	want := `(SUPPLIER ⋉[s,p : p[pid] ∈ s.parts] σ[p : p.color = "red"](PART))`
	if got := res.Expr.String(); got != want {
		t.Errorf("EQ5 optimized:\n got %s\nwant %s", got, want)
	}
	if res.NestedAfter != 0 {
		t.Errorf("EQ5 still nested: %d", res.NestedAfter)
	}
	mustEq(t, st, e, res.Expr)
}

// TestOptimizeEQ4UsesAttributeUnnest drives Example Query 4 end to end and
// expects the paper's μ + antijoin plan.
func TestOptimizeEQ4UsesAttributeUnnest(t *testing.T) {
	e := adl.MapE("s", adl.Dot(adl.V("s"), "eid"),
		adl.Sel("s",
			adl.Ex("z", adl.Dot(adl.V("s"), "parts"),
				adl.NotE(adl.Ex("p", adl.T("PART"),
					adl.EqE(adl.V("z"), adl.SubT(adl.V("p"), "pid"))))),
			adl.T("SUPPLIER")))
	st := bench.Generate(bench.Config{Suppliers: 30, Parts: 40, DanglingFrac: 0.2, Seed: 11})
	ctx := NewContext(st.Catalog())
	res := optimizeLifted(t, e, ctx)
	want := `α[s : s.eid]((μ[parts](SUPPLIER) ▷[s,p : s[pid] = p[pid]] PART))`
	if got := res.Expr.String(); got != want {
		t.Errorf("EQ4 optimized:\n got %s\nwant %s", got, want)
	}
	usedUnnest := false
	for _, o := range res.OptionsUsed {
		if o == "attribute-unnest" {
			usedUnnest = true
		}
	}
	if !usedUnnest {
		t.Errorf("EQ4 should use the attribute-unnest option, used %v", res.OptionsUsed)
	}
	mustEq(t, st, e, res.Expr)
}

// TestOptimizeEQ6UsesNestjoin drives Example Query 6 (nesting in the
// select-clause) and expects the paper's nestjoin form.
func TestOptimizeEQ6UsesNestjoin(t *testing.T) {
	e := adl.MapE("s",
		adl.Tup("sname", adl.Dot(adl.V("s"), "sname"),
			"parts_suppl", adl.Sel("p",
				adl.CmpE(adl.In, adl.SubT(adl.V("p"), "pid"), adl.Dot(adl.V("s"), "parts")),
				adl.T("PART"))),
		adl.T("SUPPLIER"))
	st := bench.Generate(bench.Config{Suppliers: 30, Parts: 40, Seed: 13})
	ctx := NewContext(st.Catalog())
	res := optimizeLifted(t, e, ctx)
	want := `α[s : (sname = s.sname, parts_suppl = s.ys)]((SUPPLIER ⊣[s,p : p[pid] ∈ s.parts ; ys] PART))`
	if got := res.Expr.String(); got != want {
		t.Errorf("EQ6 optimized:\n got %s\nwant %s", got, want)
	}
	mustEq(t, st, e, res.Expr)
}

// TestOptimizeAggregateBetweenBlocks exercises the [Kim82]/[GaWo87] scenario
// — an aggregate between blocks — which must go through the nestjoin (the
// relational rules cannot touch count(Y′) = k for k > 0).
func TestOptimizeAggregateBetweenBlocks(t *testing.T) {
	sub := adl.Sel("p",
		adl.CmpE(adl.In, adl.SubT(adl.V("p"), "pid"), adl.Dot(adl.V("s"), "parts")),
		adl.T("PART"))
	e := adl.Sel("s", adl.EqE(adl.AggE(adl.Count, sub), adl.CInt(2)), adl.T("SUPPLIER"))
	st := bench.Generate(bench.Config{Suppliers: 30, Parts: 10, Fanout: 3, Seed: 17})
	ctx := NewContext(st.Catalog())
	res := optimizeLifted(t, e, ctx)
	if res.NestedAfter != 0 {
		t.Fatalf("aggregate query still nested: %s", res.Expr)
	}
	if n := adl.CountNodes(res.Expr, func(x adl.Expr) bool {
		j, ok := x.(*adl.Join)
		return ok && j.Kind == adl.NestJ
	}); n == 0 {
		t.Errorf("expected a nestjoin plan, got %s", res.Expr)
	}
	mustEq(t, st, e, res.Expr)
}

// TestCountBugScenario is the classical COUNT bug: suppliers whose subquery
// count equals zero must appear in the result; the nestjoin plan preserves
// them while a forced grouping plan drops them.
func TestCountBugScenario(t *testing.T) {
	st := bench.Generate(bench.Config{Suppliers: 40, Parts: 10, Fanout: 2, EmptyFrac: 0.4, Seed: 23})
	ctx := NewContext(st.Catalog())
	sub := adl.Sel("p",
		adl.CmpE(adl.In, adl.SubT(adl.V("p"), "pid"), adl.Dot(adl.V("s"), "parts")),
		adl.T("PART"))
	e := adl.Sel("s", adl.EqE(adl.AggE(adl.Count, sub), adl.CInt(0)), adl.T("SUPPLIER"))

	correct, err := eval.EvalSet(e, nil, st)
	if err != nil {
		t.Fatal(err)
	}
	if correct.Len() == 0 {
		t.Fatalf("fixture must contain empty suppliers")
	}
	// The relational rules CAN handle count = 0 (Table 2) via an antijoin.
	res := optimizeLifted(t, e, ctx)
	if res.NestedAfter != 0 {
		t.Fatalf("count=0 must unnest: %s", res.Expr)
	}
	mustEq(t, st, e, res.Expr)
	// Forced grouping on the same query loses every zero-count supplier.
	buggy, ok := UnnestByGrouping(e, ctx, true)
	if !ok {
		t.Fatalf("forced grouping did not apply")
	}
	buggyRes, err := eval.EvalSet(buggy, nil, st)
	if err != nil {
		t.Fatal(err)
	}
	if buggyRes.Len() != 0 {
		t.Errorf("the COUNT bug should lose all zero-count suppliers, kept %d", buggyRes.Len())
	}
}

// TestNestedTableCount pins the optimization objective.
func TestNestedTableCount(t *testing.T) {
	// Top-level tables don't count.
	if n := NestedTableCount(adl.SemiJoin(adl.T("X"), "x", "y", adl.CBool(true), adl.T("Y"))); n != 0 {
		t.Errorf("top-level join operands = %d", n)
	}
	// A table inside a σ predicate counts.
	e := adl.Sel("x", adl.Ex("y", adl.T("Y"), adl.CBool(true)), adl.T("X"))
	if n := NestedTableCount(e); n != 1 {
		t.Errorf("nested quantifier range = %d", n)
	}
	// A table inside an α body counts.
	e2 := adl.MapE("x", adl.Sel("y", adl.CBool(true), adl.T("Y")), adl.T("X"))
	if n := NestedTableCount(e2); n != 1 {
		t.Errorf("nested map body = %d", n)
	}
	// Set-valued attribute iteration does not count.
	e3 := adl.Sel("x", adl.Ex("z", adl.Dot(adl.V("x"), "c"), adl.CBool(true)), adl.T("X"))
	if n := NestedTableCount(e3); n != 0 {
		t.Errorf("attribute iteration = %d", n)
	}
}

// TestTraceRecorded ensures rewrite steps are captured for explanation.
func TestTraceRecorded(t *testing.T) {
	sub := adl.Sel("y", adl.EqE(adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "d")), adl.T("Y"))
	e := adl.Sel("x", adl.CmpE(adl.In, adl.Dot(adl.V("x"), "a"),
		adl.MapE("y", adl.Dot(adl.V("y"), "d"), sub)), adl.T("X"))
	en := relationalEngine()
	en.Run(e, figureCtx())
	if len(en.Trace) == 0 {
		t.Fatalf("no trace recorded")
	}
	names := map[string]bool{}
	for _, s := range en.Trace {
		names[s.Rule] = true
	}
	for _, want := range []string{"expand-in", "rule1-semijoin"} {
		if !names[want] {
			t.Errorf("trace missing rule %s: %v", want, names)
		}
	}
}

// TestLetInlineAndComposeSelect covers the normalization rules directly.
func TestLetInlineAndComposeSelect(t *testing.T) {
	// Correlated (open) bindings inline; closed table-valued bindings are
	// constants and stay hoisted.
	e := adl.LetE("Y1", adl.Sel("y", adl.EqE(adl.Dot(adl.V("y"), "d"), adl.Dot(adl.V("x"), "a")), adl.T("Y")),
		adl.AggE(adl.Count, adl.V("Y1")))
	en := NewEngine(NormalizeRules())
	got := en.Run(e, figureCtx())
	want := adl.AggE(adl.Count,
		adl.Sel("y", adl.EqE(adl.Dot(adl.V("y"), "d"), adl.Dot(adl.V("x"), "a")), adl.T("Y")))
	if !adl.Equal(got, want) {
		t.Errorf("let-inline = %s", got)
	}
	closed := adl.LetE("Y1", adl.T("Y"),
		adl.Sel("x", adl.EqE(adl.Dot(adl.V("x"), "d"), adl.CInt(1)), adl.V("Y1")))
	if got := en.Run(closed, figureCtx()); !adl.Equal(got, closed) {
		t.Errorf("closed table binding must not inline, got %s", got)
	}
	// σ over σ merges (from-clause unnesting).
	e2 := adl.Sel("d", adl.EqE(adl.Dot(adl.V("d"), "e"), adl.CInt(3)),
		adl.Sel("y", adl.EqE(adl.Dot(adl.V("y"), "d"), adl.CInt(1)), adl.T("Y")))
	got2 := en.Run(e2, figureCtx())
	sel, ok := got2.(*adl.Select)
	if !ok {
		t.Fatalf("compose-select = %s", got2)
	}
	if _, stillNested := sel.Src.(*adl.Select); stillNested {
		t.Errorf("selects not merged: %s", got2)
	}
	mustEq(t, bench.Figure2DB(), e2, got2)
}

// TestRule2JoinDirect covers Rule 2 (nesting in the map operator).
func TestRule2JoinDirect(t *testing.T) {
	// ∪(α[x : α[y : x ∘ y](σ[y : x.a = y.d](Y))](X2)) ⇒ X2 ⋈(x,y:p) Y
	// (X2 is X without the conflicting c attribute).
	db := bench.Figure2DB()
	xFlat := value.NewSet(
		value.NewTuple("a", value.Int(1)),
		value.NewTuple("a", value.Int(2)),
		value.NewTuple("a", value.Int(3)),
	)
	db.Tables["XF"] = xFlat
	ctx := NewStaticContext(map[string]*types.Tuple{
		"XF": types.NewTuple("a", types.IntType),
		"Y":  types.NewTuple("d", types.IntType, "e", types.IntType),
	})
	p := adl.EqE(adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "d"))
	e := adl.Flat(adl.MapE("x",
		adl.MapE("y", adl.Cat(adl.V("x"), adl.V("y")), adl.Sel("y", p, adl.T("Y"))),
		adl.T("XF")))
	en := relationalEngine()
	got := en.Run(e, ctx)
	j, ok := got.(*adl.Join)
	if !ok || j.Kind != adl.Inner {
		t.Fatalf("Rule 2 must yield a regular join, got %s", got)
	}
	mustEq(t, db, e, got)

	// Reversed concatenation order is also accepted.
	e2 := adl.Flat(adl.MapE("x",
		adl.MapE("y", adl.Cat(adl.V("y"), adl.V("x")), adl.Sel("y", p, adl.T("Y"))),
		adl.T("XF")))
	got2 := relationalEngine().Run(e2, ctx)
	if _, ok := got2.(*adl.Join); !ok {
		t.Fatalf("Rule 2 (reversed ∘) must yield a join, got %s", got2)
	}
	mustEq(t, db, e2, got2)
}

// TestJoinPushdown covers operand selection pushdown on its own.
func TestJoinPushdown(t *testing.T) {
	on := adl.AndE(
		adl.EqE(adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "d")),
		adl.CmpE(adl.Gt, adl.Dot(adl.V("y"), "e"), adl.CInt(1)),
		adl.CmpE(adl.Lt, adl.Dot(adl.V("x"), "a"), adl.CInt(3)),
	)
	e := adl.SemiJoin(adl.T("X"), "x", "y", on, adl.T("Y"))
	got, ok := joinPushdown(e, figureCtx())
	if !ok {
		t.Fatalf("pushdown did not fire")
	}
	j := got.(*adl.Join)
	if _, isSel := j.R.(*adl.Select); !isSel {
		t.Errorf("right-side predicate not pushed: %s", got)
	}
	if _, isSel := j.L.(*adl.Select); !isSel {
		t.Errorf("left-side predicate not pushed: %s", got)
	}
	mustEq(t, bench.Figure2DB(), e, got)

	// Nestjoin: left-side conjuncts must NOT be pushed (tuple-preserving).
	nj := adl.NestJoin(adl.T("X"), "x", "y", on, "ys", adl.T("Y"))
	got2, ok := joinPushdown(nj, figureCtx())
	if !ok {
		t.Fatalf("nestjoin pushdown did not fire at all")
	}
	j2 := got2.(*adl.Join)
	if _, isSel := j2.L.(*adl.Select); isSel {
		t.Errorf("nestjoin left pushdown is unsound: %s", got2)
	}
	if _, isSel := j2.R.(*adl.Select); !isSel {
		t.Errorf("nestjoin right pushdown missing: %s", got2)
	}
	mustEq(t, bench.Figure2DB(), nj, got2)
}

// TestOuterJoinRepair validates the [GaWo87] outer-join repair of the bug
// on the Figure 2 query: unlike the inner-join grouping, it preserves the
// dangling tuple for every predicate, with no Table 3 guard needed.
func TestOuterJoinRepair(t *testing.T) {
	db := bench.Figure2DB()
	ctx := figureCtx()
	sub := adl.Sel("y", adl.EqE(adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "d")), adl.T("Y"))

	// Every comparator — including the buggy ⊆ and = cases — is repaired.
	for _, op := range []adl.CmpOp{adl.SubEq, adl.Sub, adl.Eq, adl.SupEq, adl.Sup} {
		query := adl.Sel("x", adl.CmpE(op, adl.Dot(adl.V("x"), "c"), sub), adl.T("X"))
		repaired, ok := UnnestByGroupingOuter(query, ctx)
		if !ok {
			t.Fatalf("%s: outer repair did not apply", op)
		}
		if NestedTableCount(repaired) != 0 {
			t.Errorf("%s: repair left nesting: %s", op, repaired)
		}
		mustEq(t, db, query, repaired)
	}

	// And on generated supplier-part data with empty suppliers.
	st := bench.Generate(bench.Config{Suppliers: 30, Parts: 20, Fanout: 3, EmptyFrac: 0.3, Seed: 5})
	sctx := NewContext(st.Catalog())
	psub := adl.Sel("p", adl.AndE(
		adl.CmpE(adl.In, adl.SubT(adl.V("p"), "pid"), adl.Dot(adl.V("s"), "parts")),
		adl.CmpE(adl.Lt, adl.Dot(adl.V("p"), "price"), adl.CInt(60))),
		adl.T("PART"))
	q2 := adl.Sel("s", adl.EqE(adl.AggE(adl.Count,
		adl.MapE("q", adl.SubT(adl.V("q"), "pid"), psub)), adl.CInt(0)), adl.T("SUPPLIER"))
	_ = q2 // the count-form has a map layer; use the σ-only form below
	q3 := adl.Sel("s", adl.CmpE(adl.SubEq, adl.Dot(adl.V("s"), "parts"),
		adl.MapE("p", adl.Tup("pid", adl.Dot(adl.V("p"), "pid")), psub)), adl.T("SUPPLIER"))
	// Map-layer blocks: the repair re-applies the map after subtracting
	// the null padding.
	repaired3, ok := UnnestByGroupingOuter(q3, sctx)
	if !ok {
		t.Fatalf("outer repair did not apply to the map-layer block")
	}
	mustEq(t, st, q3, repaired3)
	q4 := adl.Sel("s", adl.EqE(adl.AggE(adl.Count, psub), adl.CInt(0)), adl.T("SUPPLIER"))
	repaired, ok := UnnestByGroupingOuter(q4, sctx)
	if !ok {
		t.Fatalf("outer repair did not apply to the count query")
	}
	mustEq(t, st, q4, repaired)
}
