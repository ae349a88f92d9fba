package rewrite

import (
	"testing"

	"repro/internal/adl"
	"repro/internal/bench"
	"repro/internal/value"
)

// TestEngineTerminatesOnAdversarialRules: the MaxSteps budget stops rule
// sets that never reach a fixpoint.
func TestEngineTerminatesOnAdversarialRules(t *testing.T) {
	flip := Rule{Name: "flip", Apply: func(e adl.Expr, _ *Context) (adl.Expr, bool) {
		if c, ok := e.(*adl.Const); ok {
			if b, isB := c.Val.(value.Bool); isB {
				return adl.CBool(!bool(b)), true
			}
		}
		return e, false
	}}
	en := NewEngine([]Rule{flip})
	en.MaxSteps = 50
	out := en.Run(adl.CBool(true), figureCtx())
	if out == nil {
		t.Fatal("engine returned nil")
	}
	if fired := len(en.Trace); fired < 50 {
		t.Fatalf("adversarial rule fired only %d times", fired)
	}
}

// TestEngineUntypeableFragmentsAreSafe: rules needing types skip gracefully
// when a fragment cannot be typed (unknown tables).
func TestEngineUntypeableFragmentsAreSafe(t *testing.T) {
	e := adl.Sel("x",
		adl.EqE(adl.AggE(adl.Count, adl.Sel("y",
			adl.CmpE(adl.In, adl.V("y"), adl.Dot(adl.V("x"), "c")), adl.T("GHOST"))), adl.CInt(2)),
		adl.T("ALSO_GHOST"))
	res := optimizeLifted(t, e, figureCtx())
	if res.Expr == nil {
		t.Fatal("optimize returned nil on untypeable input")
	}
	// The nestjoin rule must NOT have fired (no schema available).
	n := adl.CountNodes(res.Expr, func(x adl.Expr) bool {
		j, ok := x.(*adl.Join)
		return ok && j.Kind == adl.NestJ
	})
	if n != 0 {
		t.Errorf("type-dependent rule fired without types: %s", res.Expr)
	}
}

// TestOptimizeNilResolver: a context without a resolver must not panic.
func TestOptimizeNilResolver(t *testing.T) {
	e := adl.Sel("x", adl.Ex("y", adl.T("Y"), adl.EqE(adl.V("y"), adl.Dot(adl.V("x"), "a"))), adl.T("X"))
	res := optimizeLifted(t, e, &Context{})
	// Rule 1 needs no types: the semijoin still happens.
	if _, ok := res.Expr.(*adl.Join); !ok {
		t.Errorf("type-free rules should still fire: %s", res.Expr)
	}
}

// TestRewritePreservesShadowing: rules must respect variable shadowing (the
// inner binding of a reused name wins).
func TestRewritePreservesShadowing(t *testing.T) {
	st := bench.Generate(bench.Config{Suppliers: 8, Parts: 6, Seed: 13})
	ctx := NewContext(st.Catalog())
	// σ[s : ∃s ∈ PART • s.color = "red"](SUPPLIER): inner s shadows outer.
	e := adl.Sel("s",
		adl.Ex("s", adl.T("PART"), adl.EqE(adl.Dot(adl.V("s"), "color"), adl.CStr("red"))),
		adl.T("SUPPLIER"))
	res := optimizeLifted(t, e, ctx)
	mustEq(t, st, e, res.Expr)
}

// TestWrapWholeVarHelper pins the z[X]/x substitution helper.
func TestWrapWholeVarHelper(t *testing.T) {
	// Whole-tuple use wrapped; field access left; shadowed scope untouched.
	e := adl.AndE(
		adl.CmpE(adl.In, adl.V("x"), adl.V("S")),
		adl.EqE(adl.Dot(adl.V("x"), "a"), adl.CInt(1)),
		adl.Ex("x", adl.T("Y"), adl.CmpE(adl.In, adl.V("x"), adl.V("T"))),
	)
	got := wrapWholeVar(e, "x", []string{"a", "b"})
	want := adl.AndE(
		adl.CmpE(adl.In, adl.SubT(adl.V("x"), "a", "b"), adl.V("S")),
		adl.EqE(adl.Dot(adl.V("x"), "a"), adl.CInt(1)),
		adl.Ex("x", adl.T("Y"), adl.CmpE(adl.In, adl.V("x"), adl.V("T"))),
	)
	if !adl.Equal(got, want) {
		t.Errorf("wrapWholeVar:\n got %s\nwant %s", got, want)
	}
}

// TestReplaceExprRespectsBinders pins the subquery-replacement helper.
func TestReplaceExprRespectsBinders(t *testing.T) {
	target := adl.Sel("y", adl.EqE(adl.Dot(adl.V("y"), "d"), adl.Dot(adl.V("x"), "a")), adl.T("Y"))
	// One occurrence free, one under a rebinding of x — only the free one
	// may be replaced.
	e := adl.AndE(
		adl.EqE(adl.AggE(adl.Count, target), adl.CInt(1)),
		adl.Ex("x", adl.T("X"), adl.EqE(adl.AggE(adl.Count, target), adl.CInt(2))),
	)
	got := replaceExpr(e, target, adl.V("R"))
	and := got.(*adl.And)
	if adl.CountNodes(and.L, func(x adl.Expr) bool { _, ok := x.(*adl.Select); return ok }) != 0 {
		t.Errorf("free occurrence not replaced: %s", and.L)
	}
	if adl.CountNodes(and.R, func(x adl.Expr) bool { _, ok := x.(*adl.Select); return ok }) != 1 {
		t.Errorf("shadowed occurrence wrongly replaced: %s", and.R)
	}
}

// TestFreshAttr pins the collision-avoiding attribute namer.
func TestFreshAttr(t *testing.T) {
	if got := freshAttr("ys", []string{"a", "b"}); got != "ys" {
		t.Errorf("freshAttr = %q", got)
	}
	if got := freshAttr("ys", []string{"ys"}); got == "ys" {
		t.Errorf("freshAttr did not avoid collision")
	}
}
