package rewrite

import (
	"fmt"
	"testing"

	"repro/internal/adl"
	"repro/internal/bench"
	"repro/internal/eval"
	"repro/internal/value"
)

// queryTemplates is a family of nested queries over the supplier-part
// schema covering every unnesting path: quantifier chains (EQ5), negated
// existentials (EQ4 inner), attribute unnesting, select-clause nesting
// (EQ6), set comparisons between blocks, aggregates between blocks, and
// Table 2 predicates.
func queryTemplates() map[string]adl.Expr {
	s, p, z, x := adl.V("s"), adl.V("p"), adl.V("z"), adl.V("x")
	parts := adl.Dot(s, "parts")
	partsSub := func(pred adl.Expr) adl.Expr { return adl.Sel("p", pred, adl.T("PART")) }
	inParts := adl.CmpE(adl.In, adl.SubT(p, "pid"), parts)

	return map[string]adl.Expr{
		// EQ5: suppliers supplying red parts (σ + ∃∃ chain).
		"eq5": adl.Sel("s",
			adl.Ex("x", parts, adl.Ex("p", adl.T("PART"),
				adl.AndE(adl.EqE(x, adl.SubT(p, "pid")),
					adl.EqE(adl.Dot(p, "color"), adl.CStr("red"))))),
			adl.T("SUPPLIER")),
		// EQ4: referential integrity violations (∃ over attribute, ¬∃ over table).
		"eq4": adl.MapE("s", adl.Dot(s, "eid"),
			adl.Sel("s",
				adl.Ex("z", parts, adl.NotE(adl.Ex("p", adl.T("PART"),
					adl.EqE(z, adl.SubT(p, "pid"))))),
				adl.T("SUPPLIER"))),
		// EQ6: select-clause nesting (nestjoin path).
		"eq6": adl.MapE("s",
			adl.Tup("sname", adl.Dot(s, "sname"), "ps", partsSub(inParts)),
			adl.T("SUPPLIER")),
		// Set comparison between blocks: parts ⊇ red parts' pids.
		"supeq": adl.Sel("s",
			adl.CmpE(adl.SupEq, parts,
				adl.MapE("p", adl.Tup("pid", adl.Dot(p, "pid")),
					partsSub(adl.EqE(adl.Dot(p, "color"), adl.CStr("red"))))),
			adl.T("SUPPLIER")),
		// Subset: all of s's parts are cheap.
		"subeq": adl.Sel("s",
			adl.CmpE(adl.SubEq, parts,
				adl.MapE("p", adl.Tup("pid", adl.Dot(p, "pid")),
					partsSub(adl.CmpE(adl.Lt, adl.Dot(p, "price"), adl.CInt(50))))),
			adl.T("SUPPLIER")),
		// Aggregate between blocks (count = 2, nestjoin path).
		"count2": adl.Sel("s",
			adl.EqE(adl.AggE(adl.Count, partsSub(inParts)), adl.CInt(2)),
			adl.T("SUPPLIER")),
		// Table 2: emptiness (count = 0, antijoin path).
		"count0": adl.Sel("s",
			adl.EqE(adl.AggE(adl.Count, partsSub(inParts)), adl.CInt(0)),
			adl.T("SUPPLIER")),
		// Table 2: empty intersection between an attribute and a block.
		"isect": adl.Sel("s",
			adl.EqE(&adl.SetOp{Op: adl.Intersect,
				L: parts,
				R: adl.MapE("p", adl.Tup("pid", adl.Dot(p, "pid")),
					partsSub(adl.EqE(adl.Dot(p, "color"), adl.CStr("red"))))},
				adl.SetOf()),
			adl.T("SUPPLIER")),
		// Rule 2 shape: flatten of a nested concat map (supplier × its parts).
		"rule2": adl.Flat(adl.MapE("s",
			adl.MapE("p", adl.Cat(adl.SubT(s, "eid", "sname"), adl.V("p")),
				adl.Sel("p", inParts, adl.T("PART"))),
			adl.T("SUPPLIER"))),
		// Rule 2 itself: its head concatenates the two bare variables (the
		// projected form above is taken by the nestjoin instead).
		"rule2bare": adl.Flat(adl.MapE("s",
			adl.MapE("p", adl.Cat(s, adl.V("p")),
				adl.Sel("p", inParts, adl.T("PART"))),
			adl.T("SUPPLIER"))),
		// Uncorrelated subquery: treated as a constant, left alone but must
		// stay correct.
		"uncorrelated": adl.Sel("s",
			adl.CmpE(adl.Gt, adl.AggE(adl.Count,
				adl.Sel("p", adl.EqE(adl.Dot(p, "color"), adl.CStr("red")), adl.T("PART"))),
				adl.CInt(1)),
			adl.T("SUPPLIER")),
		// Three blocks (the paper's "multiple nesting levels"): suppliers
		// with a part that some delivery actually delivered. Rule 1 +
		// pushdown cascade into semijoins of semijoins.
		"threeblock": adl.Sel("s",
			adl.Ex("p", adl.T("PART"), adl.AndE(
				inParts,
				adl.Ex("d", adl.T("DELIVERY"),
					adl.Ex("sp", adl.Dot(adl.V("d"), "supply"),
						adl.EqE(adl.Dot(adl.V("sp"), "part"), adl.Dot(p, "pid")))))),
			adl.T("SUPPLIER")),
	}
}

// TestOptimizePreservesSemantics checks eval(q) == eval(Optimize(q)) for
// every template over randomized databases of varying shape, including ones
// with empty part sets and dangling references.
func TestOptimizePreservesSemantics(t *testing.T) {
	configs := []bench.Config{
		{Suppliers: 20, Parts: 30, Fanout: 4, Seed: 1},
		{Suppliers: 15, Parts: 10, Fanout: 2, EmptyFrac: 0.3, Seed: 2},
		{Suppliers: 25, Parts: 20, Fanout: 6, DanglingFrac: 0.2, Seed: 3},
		{Suppliers: 10, Parts: 5, Fanout: 1, EmptyFrac: 0.5, DanglingFrac: 0.3, Seed: 4},
		{Suppliers: 1, Parts: 1, Fanout: 1, Seed: 5},
	}
	for name, q := range queryTemplates() {
		for ci, cfg := range configs {
			t.Run(fmt.Sprintf("%s/db%d", name, ci), func(t *testing.T) {
				st := bench.Generate(cfg)
				ctx := NewContext(st.Catalog())
				res := optimizeLifted(t, q, ctx)
				want, err := eval.Eval(q, nil, st)
				if err != nil {
					t.Fatalf("eval original: %v", err)
				}
				got, err := eval.Eval(res.Expr, nil, st)
				if err != nil {
					t.Fatalf("eval optimized %s: %v", res.Expr, err)
				}
				if !value.Equal(want, got) {
					t.Fatalf("semantics changed\n  query: %s\n  plan:  %s\n  want %v\n  got  %v",
						q, res.Expr, want, got)
				}
			})
		}
	}
}

// TestOptimizeUnnestsAllTemplates checks the §3 goal is reached for every
// template that can be unnested: no base table remains inside an iterator
// parameter. The uncorrelated template unnests by constant hoisting.
func TestOptimizeUnnestsAllTemplates(t *testing.T) {
	unnestable := []string{"eq5", "eq4", "eq6", "supeq", "count2", "count0", "isect", "rule2", "rule2bare", "uncorrelated", "threeblock"}
	st := bench.Generate(bench.Config{Suppliers: 5, Parts: 5, Seed: 9})
	ctx := NewContext(st.Catalog())
	qs := queryTemplates()
	for _, name := range unnestable {
		res := optimizeLifted(t, qs[name], ctx)
		if res.NestedAfter != 0 {
			t.Errorf("%s: %d base tables still nested:\n  %s", name, res.NestedAfter, res.Expr)
		}
	}
}

// TestOptimizeIdempotent ensures a second optimization pass is a no-op.
func TestOptimizeIdempotent(t *testing.T) {
	st := bench.Generate(bench.Config{Suppliers: 5, Parts: 5, Seed: 9})
	ctx := NewContext(st.Catalog())
	for name, q := range queryTemplates() {
		once := optimizeLifted(t, q, ctx)
		twice := optimizeLifted(t, once.Expr, ctx)
		if !adl.Equal(once.Expr, twice.Expr) {
			t.Errorf("%s: optimization not idempotent:\n  once:  %s\n  twice: %s",
				name, once.Expr, twice.Expr)
		}
	}
}

// TestConstantHoisting: an uncorrelated subquery becomes a with-binding
// evaluated once — observable through the store's extent-scan counter.
func TestConstantHoisting(t *testing.T) {
	st := bench.Generate(bench.Config{Suppliers: 50, Parts: 20, Seed: 7})
	q := queryTemplates()["uncorrelated"]
	res := optimizeLifted(t, q, NewContext(st.Catalog()))
	if res.NestedAfter != 0 {
		t.Fatalf("uncorrelated subquery not hoisted: %s", res.Expr)
	}
	if _, isLet := res.Expr.(*adl.Let); !isLet {
		t.Fatalf("expected a with-binding at top level, got %s", res.Expr)
	}
	// Naive: PART consulted once per supplier. Hoisted: once.
	st.ResetStats()
	if _, err := eval.Eval(q, nil, st); err != nil {
		t.Fatal(err)
	}
	naiveScans := st.Stats().ExtentScans
	st.ResetStats()
	if _, err := eval.Eval(res.Expr, nil, st); err != nil {
		t.Fatal(err)
	}
	hoistScans := st.Stats().ExtentScans
	if hoistScans >= naiveScans {
		t.Errorf("hoisting did not reduce extent scans: naive %d, hoisted %d", naiveScans, hoistScans)
	}
	if hoistScans > 2 { // PART once + SUPPLIER once
		t.Errorf("hoisted plan scans extents %d times, want ≤ 2", hoistScans)
	}
	mustEqDB(t, st, q, res.Expr)
}

// mustEqDB is mustEq for *storage.Store databases.
func mustEqDB(t *testing.T, db eval.DB, a, b adl.Expr) {
	t.Helper()
	mustEq(t, db, a, b)
}

// TestGroupingEquivalenceWhenGuardAccepts: whenever the Table 3 guard admits
// the [GaWo87] grouping rewrite, the result must agree with nested-loop
// semantics (the guard is exactly the correctness condition).
func TestGroupingEquivalenceWhenGuardAccepts(t *testing.T) {
	s, p := adl.V("s"), adl.V("p")
	parts := adl.Dot(s, "parts")
	sub := adl.MapE("p", adl.Tup("pid", adl.Dot(p, "pid")),
		adl.Sel("p", adl.CmpE(adl.In, adl.SubT(p, "pid"), parts), adl.T("PART")))
	// P(x, Y′) = parts ⊂ Y′ has P(x, ∅) ≡ false: guard accepts.
	q := adl.Sel("s", adl.CmpE(adl.Sub, parts, sub), adl.T("SUPPLIER"))
	for seed := int64(1); seed <= 5; seed++ {
		st := bench.Generate(bench.Config{Suppliers: 12, Parts: 8, Fanout: 3, EmptyFrac: 0.25, Seed: seed})
		ctx := NewContext(st.Catalog())
		grouped, ok := UnnestByGrouping(q, ctx, false)
		if !ok {
			t.Fatalf("guard should accept ⊂")
		}
		want, err := eval.Eval(q, nil, st)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eval.Eval(grouped, nil, st)
		if err != nil {
			t.Fatalf("eval grouped %s: %v", grouped, err)
		}
		if !value.Equal(want, got) {
			t.Fatalf("seed %d: grouping with accepted guard changed semantics\n plan %s", seed, grouped)
		}
	}
}
