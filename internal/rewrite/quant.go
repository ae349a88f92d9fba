package rewrite

import (
	"repro/internal/adl"
)

// QuantRules simplify quantifier range expressions and implement the
// quantifier-exchange heuristic of Rewriting Example 3: to enable
// unnesting, quantification over base tables is moved to the left (outward)
// in the prenex form, past quantifiers over set-valued attributes.
func QuantRules() []Rule {
	return []Rule{
		{Name: "range-select", Apply: rangeSelect},
		{Name: "range-map", Apply: rangeMap},
		{Name: "range-union", Apply: rangeUnion},
		{Name: "range-intersect", Apply: rangeIntersect},
		{Name: "quant-exchange", Apply: quantExchange},
		{Name: "forall-notexists-exchange", Apply: forallNotExistsExchange},
		{Name: "exists-hoist", Apply: existsHoist},
		{Name: "contract-in", Apply: contractIn},
	}
}

// rangeIntersect turns an intersection range into a membership test so that
// the base-table side becomes the quantifier range:
//
//	∃y ∈ (A ∩ B) • p  ⇒  ∃y ∈ B • y ∈ A ∧ p      (B mentions a base table)
//	∀y ∈ (A ∩ B) • p  ⇒  ∀y ∈ B • ¬(y ∈ A) ∨ p
func rangeIntersect(e adl.Expr, _ *Context) (adl.Expr, bool) {
	n, ok := e.(*adl.Quant)
	if !ok {
		return e, false
	}
	is, ok := n.Src.(*adl.SetOp)
	if !ok || is.Op != adl.Intersect {
		return e, false
	}
	rng, other := is.R, is.L
	if !ContainsTable(rng) {
		rng, other = is.L, is.R
	}
	if !ContainsTable(rng) {
		return e, false
	}
	mem := adl.CmpE(adl.In, adl.V(n.Var), other)
	if n.Kind == adl.Exists {
		return adl.Ex(n.Var, rng, adl.AndE(mem, n.Pred)), true
	}
	return adl.All(n.Var, rng, adl.OrE(adl.NotE(mem), n.Pred)), true
}

// forallNotExistsExchange implements the quantifier exchange through a
// negation (the shape Rewriting Example 3 reaches after the inner universal
// has been converted):
//
//	∀z ∈ C • ¬∃y ∈ Y • p  ⟺  ¬∃z ∈ C • ∃y ∈ Y • p  ⟺  ¬∃y ∈ Y • ∃z ∈ C • p
//
// applied when Y mentions a base table, C does not, and Y is independent of
// z — yielding the paper's ∄y ∈ Y′ • ∃z ∈ x.c • y ∉ z directly.
func forallNotExistsExchange(e adl.Expr, _ *Context) (adl.Expr, bool) {
	outer, ok := e.(*adl.Quant)
	if !ok || outer.Kind != adl.Forall || ContainsTable(outer.Src) {
		return e, false
	}
	not, ok := outer.Pred.(*adl.Not)
	if !ok {
		return e, false
	}
	inner, ok := not.X.(*adl.Quant)
	if !ok || inner.Kind != adl.Exists || !ContainsTable(inner.Src) {
		return e, false
	}
	if adl.HasFree(inner.Src, outer.Var) {
		return e, false
	}
	iv, ip := inner.Var, inner.Pred
	if iv == outer.Var || adl.HasFree(outer.Src, iv) {
		nv := adl.Fresh(iv, outer.Src, inner.Pred, inner.Src)
		ip = adl.Subst(ip, iv, adl.V(nv))
		iv = nv
	}
	return adl.NotE(adl.Ex(iv, inner.Src,
		adl.Ex(outer.Var, outer.Src, ip))), true
}

// existsHoist pulls conjuncts that do not depend on the quantified variable
// out of an existential predicate: ∃x ∈ e • (p ∧ c) ⇒ c ∧ ∃x ∈ e • p when x
// is not free in c. (Sound also for empty e: both sides are false.) This
// exposes selections that can be pushed into join operands.
func existsHoist(e adl.Expr, _ *Context) (adl.Expr, bool) {
	n, ok := e.(*adl.Quant)
	if !ok || n.Kind != adl.Exists {
		return e, false
	}
	cs := conjuncts(n.Pred)
	if len(cs) < 2 {
		return e, false
	}
	var in, out []adl.Expr
	for _, c := range cs {
		if adl.HasFree(c, n.Var) {
			in = append(in, c)
		} else {
			out = append(out, c)
		}
	}
	if len(out) == 0 || len(in) == 0 {
		return e, false
	}
	return adl.AndE(adl.AndE(out...), adl.Ex(n.Var, n.Src, adl.AndE(in...))), true
}

// contractIn is the inverse of the Table 1 membership expansion, applied to
// ranges without base tables: ∃y ∈ c • y = e ⇒ e ∈ c. It undoes expansion
// residue over set-valued attributes, restoring the paper's compact
// p[pid] ∈ s.parts join predicates. (No loop with expand-in, which requires
// a base table in the range.)
func contractIn(e adl.Expr, _ *Context) (adl.Expr, bool) {
	n, ok := e.(*adl.Quant)
	if !ok || n.Kind != adl.Exists || ContainsTable(n.Src) {
		return e, false
	}
	cmp, ok := n.Pred.(*adl.Cmp)
	if !ok || cmp.Op != adl.Eq {
		return e, false
	}
	var other adl.Expr
	if v, isVar := cmp.L.(*adl.Var); isVar && v.Name == n.Var {
		other = cmp.R
	} else if v, isVar := cmp.R.(*adl.Var); isVar && v.Name == n.Var {
		other = cmp.L
	} else {
		return e, false
	}
	if adl.HasFree(other, n.Var) {
		return e, false
	}
	return adl.CmpE(adl.In, other, n.Src), true
}

// rangeSelect removes a selection from a quantifier range (the second step
// of Rewriting Example 1):
//
//	∃y ∈ σ[v : q](Y) • p  ⇒  ∃y ∈ Y • q[v:=y] ∧ p
//	∀y ∈ σ[v : q](Y) • p  ⇒  ∀y ∈ Y • ¬q[v:=y] ∨ p
func rangeSelect(e adl.Expr, _ *Context) (adl.Expr, bool) {
	n, ok := e.(*adl.Quant)
	if !ok {
		return e, false
	}
	sel, ok := n.Src.(*adl.Select)
	if !ok {
		return e, false
	}
	q := adl.Subst(sel.Pred, sel.Var, adl.V(n.Var))
	if n.Kind == adl.Exists {
		return adl.Ex(n.Var, sel.Src, adl.AndE(q, n.Pred)), true
	}
	return adl.All(n.Var, sel.Src, adl.OrE(adl.NotE(q), n.Pred)), true
}

// rangeMap removes a map from a quantifier range by substituting the mapped
// expression into the predicate:
//
//	Qy ∈ α[v : f](Y) • p  ⇒  Qv ∈ Y • p[y := f]
//
// (sound for both quantifiers because α preserves exactly the images of Y's
// elements; duplicates are irrelevant to quantification).
func rangeMap(e adl.Expr, _ *Context) (adl.Expr, bool) {
	n, ok := e.(*adl.Quant)
	if !ok {
		return e, false
	}
	m, ok := n.Src.(*adl.Map)
	if !ok {
		return e, false
	}
	// The predicate must not capture the map variable.
	v, body := m.Var, m.Body
	if adl.HasFree(n.Pred, v) {
		nv := adl.Fresh(v, n.Pred, m.Body, m.Src)
		body = adl.Subst(body, v, adl.V(nv))
		v = nv
	}
	return &adl.Quant{Kind: n.Kind, Var: v, Src: m.Src,
		Pred: adl.Subst(n.Pred, n.Var, body)}, true
}

// rangeUnion distributes quantification over a union:
//
//	∃y ∈ (A ∪ B) • p  ⇒  (∃y ∈ A • p) ∨ (∃y ∈ B • p)
//	∀y ∈ (A ∪ B) • p  ⇒  (∀y ∈ A • p) ∧ (∀y ∈ B • p)
func rangeUnion(e adl.Expr, _ *Context) (adl.Expr, bool) {
	n, ok := e.(*adl.Quant)
	if !ok {
		return e, false
	}
	u, ok := n.Src.(*adl.SetOp)
	if !ok || u.Op != adl.Union {
		return e, false
	}
	a := &adl.Quant{Kind: n.Kind, Var: n.Var, Src: u.L, Pred: n.Pred}
	b := &adl.Quant{Kind: n.Kind, Var: n.Var, Src: u.R, Pred: n.Pred}
	if n.Kind == adl.Exists {
		return adl.OrE(a, b), true
	}
	return adl.AndE(a, b), true
}

// quantExchange swaps adjacent like quantifiers to move base-table ranges
// outward (Rewriting Example 3's ∀z ∈ x.c • ∀y ∈ Y′ • p ⇒ ∀y ∈ Y′ • ∀z ∈
// x.c • p). The exchange is valid when the quantifiers have the same kind
// and the inner range does not depend on the outer variable; it is applied
// only when it moves a base table outward past a non-table range, which also
// guarantees termination.
func quantExchange(e adl.Expr, _ *Context) (adl.Expr, bool) {
	outer, ok := e.(*adl.Quant)
	if !ok {
		return e, false
	}
	inner, ok := outer.Pred.(*adl.Quant)
	if !ok || inner.Kind != outer.Kind {
		return e, false
	}
	if ContainsTable(outer.Src) || !ContainsTable(inner.Src) {
		return e, false
	}
	if adl.HasFree(inner.Src, outer.Var) {
		return e, false
	}
	// Avoid variable collision after the swap.
	iv, ip := inner.Var, inner.Pred
	if iv == outer.Var || adl.HasFree(outer.Src, iv) {
		nv := adl.Fresh(iv, outer.Src, inner.Pred, inner.Src)
		ip = adl.Subst(ip, iv, adl.V(nv))
		iv = nv
	}
	return &adl.Quant{Kind: outer.Kind, Var: iv, Src: inner.Src,
		Pred: &adl.Quant{Kind: outer.Kind, Var: outer.Var, Src: outer.Src, Pred: ip}}, true
}
