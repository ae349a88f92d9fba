package rewrite

import (
	"repro/internal/adl"
)

// JoinRules implement the paper's Rule 1 (unnesting quantifier expressions
// into semijoins and antijoins) and Rule 2 (nested map to regular join),
// plus standard selection pushdown into join operands.
func JoinRules() []Rule {
	return []Rule{
		{Name: "rule1-semijoin", Apply: rule1SemiJoin},
		{Name: "rule1-antijoin", Apply: rule1AntiJoin},
		{Name: "rule2-join", Apply: rule2Join},
		{Name: "join-pushdown", Apply: joinPushdown},
	}
}

// joinPushdown moves join predicate conjuncts that reference only one
// operand's variable into a selection on that operand, e.g.
// SUPPLIER ⋉(s,p: p[pid] ∈ s.parts ∧ p.color = "red") PART becomes
// SUPPLIER ⋉(s,p: p[pid] ∈ s.parts) σ[p : p.color = "red"](PART)
// — the operand form the paper prints for Example Query 5. Right-side
// pushdown is valid for every join kind (it only thins the match
// candidates); left-side pushdown is valid for inner, semi and anti joins
// but not for tuple-preserving kinds (nestjoin, outer join), where dropping
// left tuples would change the result.
func joinPushdown(e adl.Expr, _ *Context) (adl.Expr, bool) {
	j, ok := e.(*adl.Join)
	if !ok {
		return e, false
	}
	cs := conjuncts(j.On)
	var keep, toL, toR []adl.Expr
	for _, c := range cs {
		usesL := adl.HasFree(c, j.LVar)
		usesR := adl.HasFree(c, j.RVar)
		switch {
		case usesR && !usesL:
			toR = append(toR, c)
		case usesL && !usesR && (j.Kind == adl.Inner || j.Kind == adl.Semi || j.Kind == adl.Anti):
			toL = append(toL, c)
		default:
			keep = append(keep, c)
		}
	}
	if len(toL) == 0 && len(toR) == 0 {
		return e, false
	}
	// Keep at least the constant-true predicate on the join.
	l, r := j.L, j.R
	if len(toL) > 0 {
		l = adl.Sel(j.LVar, adl.AndE(toL...), l)
	}
	if len(toR) > 0 {
		r = adl.Sel(j.RVar, adl.AndE(toR...), r)
	}
	return &adl.Join{Kind: j.Kind, LVar: j.LVar, RVar: j.RVar, On: adl.AndE(keep...),
		As: j.As, RFun: j.RFun, L: l, R: r}, true
}

// rule1SemiJoin implements Rule 1.1: σ[x : ∃y ∈ Y • p](X) ⇒ X ⋉(x,y:p) Y,
// provided Y mentions a base table and x is not free in Y. The matcher is
// conjunction-aware: σ[x : C1 ∧ ... ∧ ∃y∈Y•p ∧ ... ∧ Cn](X) peels the
// quantified conjunct into a semijoin and keeps the rest selected:
// σ[x : rest](X ⋉(x,y:p) Y).
func rule1SemiJoin(e adl.Expr, _ *Context) (adl.Expr, bool) {
	return rule1(e, false)
}

// rule1AntiJoin implements Rule 1.2: σ[x : ¬∃y ∈ Y • p](X) ⇒ X ▷(x,y:p) Y,
// with the same conjunction-aware matching.
func rule1AntiJoin(e adl.Expr, _ *Context) (adl.Expr, bool) {
	return rule1(e, true)
}

func rule1(e adl.Expr, negated bool) (adl.Expr, bool) {
	sel, ok := e.(*adl.Select)
	if !ok {
		return e, false
	}
	cs := conjuncts(sel.Pred)
	for i, c := range cs {
		var q *adl.Quant
		if negated {
			not, isNot := c.(*adl.Not)
			if !isNot {
				continue
			}
			q, _ = not.X.(*adl.Quant)
		} else {
			q, _ = c.(*adl.Quant)
		}
		if q == nil || q.Kind != adl.Exists {
			continue
		}
		if !ContainsTable(q.Src) || adl.HasFree(q.Src, sel.Var) {
			continue
		}
		// Rename the join variable if it collides with the select variable.
		yv, p := q.Var, q.Pred
		if yv == sel.Var {
			nv := adl.Fresh(yv, q.Pred, q.Src, sel.Src)
			p = adl.Subst(p, yv, adl.V(nv))
			yv = nv
		}
		kind := adl.Semi
		if negated {
			kind = adl.Anti
		}
		join := &adl.Join{Kind: kind, LVar: sel.Var, RVar: yv, On: p, L: sel.Src, R: q.Src}
		rest := append(append([]adl.Expr{}, cs[:i]...), cs[i+1:]...)
		if len(rest) == 0 {
			return join, true
		}
		return adl.Sel(sel.Var, adl.AndE(rest...), join), true
	}
	return e, false
}

// rule2Join implements Rule 2 (nesting in the map operator):
//
//	∪(α[x : α[y : x ∘ y](σ[y : p](Y))](X)) ⇒ X ⋈(x,y:p) Y
//
// The inner selection is optional (p defaults to true) and the concatenation
// may be written in either order — tuple equality is attribute-order
// insensitive, so X ⋈ Y covers both.
func rule2Join(e adl.Expr, _ *Context) (adl.Expr, bool) {
	fl, ok := e.(*adl.Flatten)
	if !ok {
		return e, false
	}
	outer, ok := fl.X.(*adl.Map)
	if !ok {
		return e, false
	}
	inner, ok := outer.Body.(*adl.Map)
	if !ok {
		return e, false
	}
	// The inner body must be exactly the pair concatenation.
	cc, ok := inner.Body.(*adl.Concat)
	if !ok {
		return e, false
	}
	lv, lok := cc.L.(*adl.Var)
	rv, rok := cc.R.(*adl.Var)
	if !lok || !rok {
		return e, false
	}
	if (lv.Name != outer.Var || rv.Name != inner.Var) && (lv.Name != inner.Var || rv.Name != outer.Var) {
		return e, false
	}
	// Peel an optional selection off the inner source.
	src := inner.Src
	pred := adl.Expr(adl.CBool(true))
	yv := inner.Var
	if s, isSel := src.(*adl.Select); isSel {
		src = s.Src
		pred = adl.Subst(s.Pred, s.Var, adl.V(yv))
	}
	if !ContainsTable(src) || adl.HasFree(src, outer.Var) {
		return e, false
	}
	if yv == outer.Var {
		nv := adl.Fresh(yv, pred, src, outer.Src)
		pred = adl.Subst(pred, yv, adl.V(nv))
		yv = nv
	}
	return &adl.Join{Kind: adl.Inner, LVar: outer.Var, RVar: yv, On: pred,
		L: outer.Src, R: src}, true
}
