package rewrite

import (
	"testing"

	"repro/internal/adl"
	"repro/internal/bench"
)

// TestReduceKleene covers the three-valued boolean algebra directly.
func TestReduceKleene(t *testing.T) {
	tr, fa := adl.CBool(true), adl.CBool(false)
	unk := adl.CmpE(adl.Gt, adl.Dot(adl.V("x"), "a"), adl.CInt(1))
	cases := []struct {
		e    adl.Expr
		want TV
	}{
		{tr, TVTrue},
		{fa, TVFalse},
		{unk, TVUnknown},
		{adl.NotE(tr), TVFalse},
		{adl.NotE(fa), TVTrue},
		{adl.NotE(unk), TVUnknown},
		{adl.AndE(tr, unk), TVUnknown},
		{adl.AndE(fa, unk), TVFalse}, // false dominates
		{adl.AndE(tr, tr), TVTrue},
		{adl.OrE(tr, unk), TVTrue}, // true dominates
		{adl.OrE(fa, unk), TVUnknown},
		{adl.OrE(fa, fa), TVFalse},
		// Quantifiers over statically empty ranges.
		{adl.Ex("y", adl.SetOf(), unk), TVFalse},
		{adl.All("y", adl.SetOf(), unk), TVTrue},
		{adl.Ex("y", adl.T("Y"), unk), TVUnknown},
		// Constant comparisons fold.
		{adl.CmpE(adl.Lt, adl.CInt(1), adl.CInt(2)), TVTrue},
		{adl.CmpE(adl.Ge, adl.CInt(1), adl.CInt(2)), TVFalse},
		{adl.CmpE(adl.Le, adl.CInt(2), adl.CInt(2)), TVTrue},
		{adl.CmpE(adl.Gt, adl.CInt(3), adl.CInt(2)), TVTrue},
		{adl.CmpE(adl.Ne, adl.CInt(1), adl.CInt(2)), TVTrue},
		{adl.CmpE(adl.Ne, adl.CInt(2), adl.CInt(2)), TVFalse},
		{adl.EqE(adl.CStr("a"), adl.CStr("a")), TVTrue},
		// ∅ on the left of inclusions.
		{adl.CmpE(adl.SubEq, adl.SetOf(), adl.Dot(adl.V("x"), "c")), TVTrue},
		{adl.CmpE(adl.Sup, adl.SetOf(), adl.Dot(adl.V("x"), "c")), TVFalse},
		{adl.CmpE(adl.Has, adl.SetOf(), adl.CInt(1)), TVFalse},
	}
	for _, c := range cases {
		if got := Reduce(c.e); got != c.want {
			t.Errorf("Reduce(%s) = %s, want %s", c.e, got, c.want)
		}
	}
	// TV rendering (the Table 3 column).
	if TVTrue.String() != "true" || TVFalse.String() != "false" || TVUnknown.String() != "?" {
		t.Errorf("TV strings: %s %s %s", TVTrue, TVFalse, TVUnknown)
	}
}

// TestRangeUnionForall covers the ∀ branch of the union range rule.
func TestRangeUnionForall(t *testing.T) {
	db := bench.Figure2DB()
	ctx := figureCtx()
	// ∀y ∈ (σ[d=1](Y) ∪ σ[d=3](Y)) • y.e ≥ 1 — true for all rows.
	u := &adl.SetOp{Op: adl.Union,
		L: adl.Sel("y", adl.EqE(adl.Dot(adl.V("y"), "d"), adl.CInt(1)), adl.T("Y")),
		R: adl.Sel("y", adl.EqE(adl.Dot(adl.V("y"), "d"), adl.CInt(3)), adl.T("Y"))}
	q := adl.Sel("x", adl.All("y", u, adl.CmpE(adl.Ge, adl.Dot(adl.V("y"), "e"), adl.CInt(1))), adl.T("X"))
	en := relationalEngine()
	got := en.Run(q, ctx)
	mustEq(t, db, q, got)
	fired := false
	for _, s := range en.Trace {
		if s.Rule == "range-union" {
			fired = true
		}
	}
	if !fired {
		t.Errorf("range-union did not fire: %s", got)
	}
}

// TestRangeIntersectForall covers the ∀ branch of the intersect range rule.
func TestRangeIntersectForall(t *testing.T) {
	db := bench.Figure2DB()
	ctx := figureCtx()
	is := &adl.SetOp{Op: adl.Intersect,
		L: adl.Dot(adl.V("x"), "c"),
		R: adl.Sel("y", adl.EqE(adl.Dot(adl.V("y"), "d"), adl.CInt(1)), adl.T("Y"))}
	q := adl.Sel("x", adl.All("y", is, adl.CmpE(adl.Ge, adl.Dot(adl.V("y"), "e"), adl.CInt(1))), adl.T("X"))
	en := relationalEngine()
	got := en.Run(q, ctx)
	mustEq(t, db, q, got)
}

// TestUnnestByGroupingSubset: the guarded grouping rewrite fires on ⊂.
func TestUnnestByGroupingSubset(t *testing.T) {
	db := bench.Figure2DB()
	ctx := figureCtx()
	sub := adl.Sel("y", adl.EqE(adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "d")), adl.T("Y"))
	// ⊂ has P(x,∅) ≡ false: the guarded rule fires.
	q := adl.Sel("x", adl.CmpE(adl.Sub, adl.Dot(adl.V("x"), "c"), sub), adl.T("X"))
	got, ok := UnnestByGrouping(q, ctx, false)
	if !ok {
		t.Fatalf("guarded grouping rewrite did not fire on ⊂")
	}
	mustEq(t, db, q, got)
}

// TestCatalogResolverErrors covers the unknown-name paths.
func TestCatalogResolverErrors(t *testing.T) {
	st := bench.Generate(bench.Config{Suppliers: 2, Parts: 2, Seed: 1})
	r := CatalogResolver{Cat: st.Catalog()}
	if _, err := r.TableElem("NOPE"); err == nil {
		t.Errorf("unknown table must fail")
	}
	if _, err := r.ClassTuple("Nope"); err == nil {
		t.Errorf("unknown class must fail")
	}
	if tt, err := r.ClassTuple("Part"); err != nil || tt == nil {
		t.Errorf("ClassTuple(Part) = %v, %v", tt, err)
	}
	sr := StaticResolver{}
	if _, err := sr.TableElem("X"); err == nil {
		t.Errorf("empty static resolver must fail")
	}
	if _, err := sr.ClassTuple("C"); err == nil {
		t.Errorf("static resolver has no classes")
	}
}

// TestNestjoinNameCollisions: the select variable colliding with the
// subquery variable forces a rename inside buildNestJoin.
func TestNestjoinNameCollisions(t *testing.T) {
	st := bench.Generate(bench.Config{Suppliers: 10, Parts: 8, Seed: 5})
	ctx := NewContext(st.Catalog())
	// Both blocks use the variable name "s".
	sub := adl.Sel("s", adl.CmpE(adl.In, adl.SubT(adl.V("s"), "pid"),
		adl.Dot(adl.V("s"), "parts")), adl.T("PART"))
	_ = sub
	// Note: with both bound as "s", the inner s shadows; construct instead
	// a nestjoin-map case with matching names.
	q := adl.MapE("s",
		adl.Tup("n", adl.Dot(adl.V("s"), "sname"),
			"k", adl.AggE(adl.Count,
				adl.Sel("p", adl.CmpE(adl.In, adl.SubT(adl.V("p"), "pid"),
					adl.Dot(adl.V("s"), "parts")), adl.T("PART")))),
		adl.T("SUPPLIER"))
	res := optimizeLifted(t, q, ctx)
	if res.NestedAfter != 0 {
		t.Fatalf("nestjoin-map did not unnest: %s", res.Expr)
	}
	mustEq(t, st, q, res.Expr)
}
