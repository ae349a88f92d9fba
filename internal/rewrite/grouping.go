package rewrite

import (
	"repro/internal/adl"
	"repro/internal/value"
)

// UnnestByGrouping applies the relational unnesting-by-grouping technique of
// [GaWo87] (§5.2.2) to a two-block select query:
//
//	σ[x : P(x, Y′)](X)  with Y′ = σ[y : Q(x,y)](Y)
//	⇒ π_SCH(X)(σ[x : P′](ν_{SCH(Y)→ys}(X ⋈(x,y:Q) Y)))
//
// a flat join query consisting of (1) a join evaluating the inner block
// predicate, (2) a nest operation for grouping, (3) a selection evaluating
// P, the predicate between blocks, and (4) a final projection.
//
// The technique loses dangling outer operand tuples in the join — the
// Complex Object bug. It is therefore guarded by the Table 3 static
// analysis: unless force is set, the rewrite fires only when P(x, ∅)
// statically reduces to false, the single case in which dangling tuples
// contribute nothing to the result. With force, the rewrite is applied
// unconditionally, which reproduces the bug (used by the Figure 2
// demonstration and the B3 benchmark).
func UnnestByGrouping(e adl.Expr, ctx *Context, force bool) (adl.Expr, bool) {
	sel, ok := e.(*adl.Select)
	if !ok {
		return e, false
	}
	schX, ok := ctx.schOf(sel.Src)
	if !ok {
		return e, false
	}
	sq := findSubquery(sel.Pred, sel.Var, adl.FreeVars(e))
	if sq == nil {
		return e, false
	}
	schY, ok := ctx.schOf(sq.Y)
	if !ok {
		return e, false
	}
	// The join ⋈ concatenates operand tuples; attribute names must not
	// clash (the paper assumes no naming conflicts occur).
	for _, a := range schX {
		for _, b := range schY {
			if a == b {
				return e, false
			}
		}
	}
	if !force && ReduceWithEmpty(sel.Pred, sq.S) != TVFalse {
		return e, false
	}

	as := freshAttr("ys", append(append([]string{}, schX...), schY...))
	yv, q, g := sq.YVar, sq.Q, sq.G
	if yv == sel.Var {
		nv := adl.Fresh(yv, sq.Q, sq.Y, sel.Src)
		q = adl.Subst(q, yv, adl.V(nv))
		if g != nil {
			g = adl.Subst(g, yv, adl.V(nv))
		}
		yv = nv
	}
	join := &adl.Join{Kind: adl.Inner, LVar: sel.Var, RVar: yv, On: q, L: sel.Src, R: sq.Y}
	nest := adl.Nu(join, as, schY...)

	// Replace the subquery occurrence: with a map layer, the grouped set
	// x.ys holds whole Y tuples, so the map is re-applied to it.
	var repl adl.Expr = adl.Dot(adl.V(sel.Var), as)
	if g != nil {
		repl = adl.MapE(yv, g, repl)
	}
	p := replaceExpr(sel.Pred, sq.S, repl)
	p = wrapWholeVar(p, sel.Var, schX)
	return adl.Proj(adl.Sel(sel.Var, p, nest), schX...), true
}

// UnnestByGroupingOuter is the [GaWo87] outer-join repair of the bug,
// adapted to complex objects as the paper sketches in §5.2.2 ("in using the
// outerjoin, NULL values are used to represent the empty set"):
//
//	σ[x : P(x, Y′)](X)  with Y′ = σ[y : Q(x,y)](Y)
//	⇒ π_SCH(X)(σ[x : P′]( ν_{SCH(Y)→ys}(X ⟕(x,y:Q) Y) ))
//	  with P′ = P[Y′ := x.ys − {⟨null,…,null⟩}]
//
// The left outer join pads dangling X tuples with an all-null Y tuple, so
// grouping gives them the singleton group {⟨null,…⟩}; subtracting the null
// tuple restores the empty set. Unlike the inner-join variant this is
// correct for every predicate P — no Table 3 guard needed — at the cost of
// a wider join and the extra set difference.
func UnnestByGroupingOuter(e adl.Expr, ctx *Context) (adl.Expr, bool) {
	sel, ok := e.(*adl.Select)
	if !ok {
		return e, false
	}
	schX, ok := ctx.schOf(sel.Src)
	if !ok {
		return e, false
	}
	sq := findSubquery(sel.Pred, sel.Var, adl.FreeVars(e))
	if sq == nil {
		return e, false
	}
	schY, ok := ctx.schOf(sq.Y)
	if !ok {
		return e, false
	}
	for _, a := range schX {
		for _, b := range schY {
			if a == b {
				return e, false
			}
		}
	}

	as := freshAttr("ys", append(append([]string{}, schX...), schY...))
	yv, q, g := sq.YVar, sq.Q, sq.G
	if yv == sel.Var {
		nv := adl.Fresh(yv, sq.Q, sq.Y, sel.Src)
		q = adl.Subst(q, yv, adl.V(nv))
		if g != nil {
			g = adl.Subst(g, yv, adl.V(nv))
		}
		yv = nv
	}
	join := &adl.Join{Kind: adl.Outer, LVar: sel.Var, RVar: yv, On: q, L: sel.Src, R: sq.Y}
	nest := adl.Nu(join, as, schY...)

	// The all-null Y tuple that represents "no match".
	nullTuple := &adl.TupleExpr{}
	for _, b := range schY {
		nullTuple.Names = append(nullTuple.Names, b)
		nullTuple.Elems = append(nullTuple.Elems, adl.C(value.Null{}))
	}
	var repl adl.Expr = &adl.SetOp{Op: adl.Diff,
		L: adl.Dot(adl.V(sel.Var), as),
		R: adl.SetOf(nullTuple)}
	// A map layer re-applies after the null padding is subtracted.
	if g != nil {
		repl = adl.MapE(yv, g, repl)
	}
	p := replaceExpr(sel.Pred, sq.S, repl)
	p = wrapWholeVar(p, sel.Var, schX)
	return adl.Proj(adl.Sel(sel.Var, p, nest), schX...), true
}
