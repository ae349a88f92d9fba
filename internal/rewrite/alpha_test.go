package rewrite

import (
	"testing"

	"repro/internal/adl"
	"repro/internal/bench"
	"repro/internal/eval"
	"repro/internal/types"
)

// These tests force the alpha-renaming branches inside the rules: every rule
// that merges scopes must rename binders when names collide, and the results
// must stay semantics-preserving.

// TestComposeSelectRenames: the outer predicate free-references a variable
// with the inner binder's name.
func TestComposeSelectRenames(t *testing.T) {
	db := bench.Figure2DB()
	ctx := figureCtx()
	// The inner σ binds y; the outer predicate references a FREE variable
	// also named y (here introduced by a surrounding with-binding), so the
	// compose-select rule must rename the inner binder before merging.
	inner := adl.Sel("y", adl.EqE(adl.Dot(adl.V("y"), "d"), adl.CInt(1)), adl.T("Y"))
	outer2 := adl.LetE("y", adl.CInt(1),
		adl.Sel("x", adl.EqE(adl.Dot(adl.V("x"), "d"), adl.V("y")), inner))
	en := NewEngine(NormalizeRules())
	got := en.Run(outer2, ctx)
	mustEq(t, db, outer2, got)
	// After let-inline + compose, a single σ over Y remains.
	sel, ok := got.(*adl.Select)
	if !ok {
		t.Fatalf("normalized = %s", got)
	}
	if _, nested := sel.Src.(*adl.Select); nested {
		t.Errorf("selects not merged: %s", got)
	}
}

// TestRule1RenamesCollidingVar: σ and the quantifier use the same variable.
func TestRule1RenamesCollidingVar(t *testing.T) {
	db := bench.Figure2DB()
	ctx := figureCtx()
	// σ[y : ∃y1? — construct σ[y: ∃y ∈ Y • y.d = 1](X): quantifier shadows.
	q := adl.Sel("y",
		adl.Ex("y", adl.T("Y"), adl.EqE(adl.Dot(adl.V("y"), "d"), adl.CInt(1))),
		adl.T("X"))
	en := relationalEngine()
	got := en.Run(q, ctx)
	j, ok := got.(*adl.Join)
	if !ok || j.Kind != adl.Semi {
		t.Fatalf("shadowed rule1 = %s", got)
	}
	if j.LVar == j.RVar {
		t.Fatalf("join variables must be distinct after renaming: %s", got)
	}
	mustEq(t, db, q, got)
}

// TestRangeMapRenames: the quantifier predicate uses the map variable's name
// freely (bound outside), so rangeMap must rename the map binder.
func TestRangeMapRenames(t *testing.T) {
	db := bench.Figure2DB()
	ctx := figureCtx()
	// (∃w ∈ α[v : v.d](Y) • w = v.a) with v bound by the OUTER σ — the map's
	// own v must be renamed before substituting into the predicate.
	q := adl.Sel("v",
		adl.Ex("w",
			adl.MapE("v", adl.Dot(adl.V("v"), "d"), adl.T("Y")),
			adl.EqE(adl.V("w"), adl.Dot(adl.V("v"), "a"))),
		adl.T("X"))
	en := relationalEngine()
	got := en.Run(q, ctx)
	mustEq(t, db, q, got)
	if NestedTableCount(got) != 0 {
		t.Errorf("shadowed range-map case not unnested: %s", got)
	}
}

// TestQuantExchangeRenames: the inner quantifier variable collides with the
// outer's range variable references.
func TestQuantExchangeRenames(t *testing.T) {
	st := bench.Generate(bench.Config{Suppliers: 10, Parts: 8, Seed: 7})
	ctx := NewContext(st.Catalog())
	// σ[s : ∃x ∈ s.parts • ∃s1? — name the inner quantifier "s": after the
	// exchange it would capture the outer σ var unless renamed.
	q := adl.Sel("s",
		adl.Ex("x", adl.Dot(adl.V("s"), "parts"),
			adl.Ex("s", adl.T("PART"),
				adl.EqE(adl.V("x"), adl.SubT(adl.V("s"), "pid")))),
		adl.T("SUPPLIER"))
	res := optimizeLifted(t, q, ctx)
	mustEq(t, st, q, res.Expr)
	if res.NestedAfter != 0 {
		t.Errorf("colliding exchange case not unnested: %s", res.Expr)
	}
}

// TestRule2Renames: Rule 2 with the inner selection variable distinct from
// the map variable, requiring normalization inside the matcher.
func TestRule2Renames(t *testing.T) {
	db := bench.Figure2DB()
	xf, err := eval.EvalSet(adl.Proj(adl.T("X"), "a"), nil, db)
	if err != nil {
		t.Fatal(err)
	}
	db.Tables["XF"] = xf
	ctx := NewStaticContext(map[string]*types.Tuple{
		"XF": types.NewTuple("a", types.IntType),
		"Y":  types.NewTuple("d", types.IntType, "e", types.IntType),
	})
	// The σ binds w while the map binds y: rule2 must align them.
	p := adl.EqE(adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("w"), "d"))
	e := adl.Flat(adl.MapE("x",
		adl.MapE("y", adl.Cat(adl.V("x"), adl.V("y")),
			adl.Sel("w", p, adl.T("Y"))),
		adl.T("XF")))
	en := relationalEngine()
	got := en.Run(e, ctx)
	if _, ok := got.(*adl.Join); !ok {
		t.Fatalf("rule2 with distinct vars = %s", got)
	}
	mustEq(t, db, e, got)
}
