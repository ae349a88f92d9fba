package rewrite

import (
	"repro/internal/adl"
	"repro/internal/types"
)

// AttrUnnestRules implement the paper's first optimization option (§4,
// "Unnesting Of Attributes"): if nesting is caused by iteration over a
// set-valued attribute, the attribute can be unnested with μ. The paper
// restricts the option to queries where the final nesting is not required
// and empty set-valued attributes cause no problem; the rule therefore
// matches
//
//	α[x : B](σ[x : ∃z ∈ x.c • p](X))        (B independent of c)
//
// and rewrites to
//
//	α[x : B](σ[x : p′](μ_c(X)))
//
// with p′ = p[z := x[SCH(c)]]. Because the quantifier is existential,
// tuples with empty c — dropped by μ — would fail the predicate anyway, and
// because the result drops c (and set semantics collapse duplicate images),
// no nest operation is needed afterwards. Example Query 4 is the paper's
// use case: the inner ¬∃ over PART subsequently becomes an antijoin via
// Rule 1. (The translation emits no π, so the π_A form of the same match
// never arises.)
func AttrUnnestRules() []Rule {
	return []Rule{
		{Name: "unnest-attr-map", Apply: unnestAttrMap},
	}
}

func unnestAttrMap(e adl.Expr, ctx *Context) (adl.Expr, bool) {
	m, ok := e.(*adl.Map)
	if !ok {
		return e, false
	}
	sel, ok := m.Src.(*adl.Select)
	if !ok {
		return e, false
	}
	// Normalize the two binder names.
	body := m.Body
	if m.Var != sel.Var {
		if adl.HasFree(body, sel.Var) {
			return e, false
		}
		body = adl.Subst(body, m.Var, adl.V(sel.Var))
	}
	q, ok := sel.Pred.(*adl.Quant)
	if !ok || q.Kind != adl.Exists {
		return e, false
	}
	fa, ok := q.Src.(*adl.Field)
	if !ok {
		return e, false
	}
	v, ok := fa.X.(*adl.Var)
	if !ok || v.Name != sel.Var {
		return e, false
	}
	attr := fa.Name
	// Only worthwhile when the predicate still nests a base table — the
	// whole point is to expose it to Rule 1 afterwards.
	if !ContainsTable(q.Pred) {
		return e, false
	}
	// Static schema checks: c is a set of tuples on X, no field conflicts.
	elemT, ok := ctx.elemOf(sel.Src)
	if !ok {
		return e, false
	}
	et, ok := types.Erase(elemT).(*types.Tuple)
	if !ok {
		return e, false
	}
	ct, ok := et.Field(attr)
	if !ok {
		return e, false
	}
	cset, ok := ct.(*types.Set)
	if !ok {
		return e, false
	}
	ctup, ok := cset.Elem.(*types.Tuple)
	if !ok {
		return e, false
	}
	for _, f := range ctup.Fields {
		if _, clash := et.Field(f.Name); clash {
			return e, false
		}
	}
	// The inner predicate may use z and x's other attributes, but not x.c
	// (gone after μ) and not x as a whole tuple; nor may the map body.
	for _, x := range []adl.Expr{q.Pred, body} {
		if containsField(x, sel.Var, attr) || usesWholeVar(x, sel.Var) {
			return e, false
		}
	}

	// p′ = p[z := x[SCH(c-elem)]] — after μ, z's attributes live directly on
	// the unnested tuple.
	elemAttrs := make([]string, len(ctup.Fields))
	for i, f := range ctup.Fields {
		elemAttrs[i] = f.Name
	}
	p := adl.Subst(q.Pred, q.Var, adl.SubT(adl.V(sel.Var), elemAttrs...))
	return adl.MapE(sel.Var, body, adl.Sel(sel.Var, p, adl.Mu(attr, sel.Src))), true
}
