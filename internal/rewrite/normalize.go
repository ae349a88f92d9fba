package rewrite

import (
	"repro/internal/adl"
)

// NormalizeRules are semantics-preserving clean-ups applied before the
// unnesting phases: with-bindings are inlined, from-clause nesting is
// removed by composing selections (the paper's "nesting in the from-clause
// is handled easily"), and trivial boolean structure is simplified.
func NormalizeRules() []Rule {
	return []Rule{
		{Name: "let-inline", Apply: letInline},
		{Name: "compose-select", Apply: composeSelect},
		{Name: "map-identity", Apply: mapIdentity},
		{Name: "not-not", Apply: notNot},
		{Name: "bool-simplify", Apply: boolSimplify},
	}
}

// letInline substitutes with-bindings at their use sites:
// (body with v = val) ⇒ body[v := val]. Closed bindings that mention a base
// table are kept: they are constants ("uncorrelated subqueries simply are
// constants, and treated as such", §3) and evaluating them once is the
// point — hoistConstant creates exactly such bindings.
func letInline(e adl.Expr, _ *Context) (adl.Expr, bool) {
	n, ok := e.(*adl.Let)
	if !ok {
		return e, false
	}
	if ContainsTable(n.Val) && len(adl.FreeVars(n.Val)) == 0 {
		return e, false
	}
	return adl.Subst(n.Body, n.Var, n.Val), true
}

// hoistConstant pulls closed, base-table-mentioning subexpressions out of
// iterator parameters into a with-binding evaluated once:
//
//	σ[x : P(S)](X) ⇒ (σ[x : P(v)](X) with v = S)    S closed, mentions a table
//
// and likewise for α. This removes the nested base table from the iterator
// parameter (the §3 goal) without any join; the constant is computed once
// instead of |X| times.
func hoistConstant(e adl.Expr, _ *Context) (adl.Expr, bool) {
	var param adl.Expr
	switch n := e.(type) {
	case *adl.Select:
		param = n.Pred
	case *adl.Map:
		param = n.Body
	default:
		return e, false
	}
	target := findClosedTableSubexpr(param)
	if target == nil {
		return e, false
	}
	v := adl.Fresh("const", e)
	repl := replaceExpr(param, target, adl.V(v))
	var body adl.Expr
	switch n := e.(type) {
	case *adl.Select:
		body = adl.Sel(n.Var, repl, n.Src)
	case *adl.Map:
		body = adl.MapE(n.Var, repl, n.Src)
	}
	return adl.LetE(v, target, body), true
}

// findClosedTableSubexpr returns the first outermost subexpression of p that
// mentions a base table and has no free variables — a constant subquery.
// The expression must be a proper query block (set-shaped), and quantifier
// ranges are excluded: a closed quantifier range is Rule 1's pattern, and
// hiding it behind a binding would block the semijoin without gaining
// anything (the quantifier would still iterate it per outer tuple).
func findClosedTableSubexpr(p adl.Expr) adl.Expr {
	var found adl.Expr
	var rec func(e adl.Expr)
	rec = func(e adl.Expr) {
		if found != nil {
			return
		}
		if q, ok := e.(*adl.Quant); ok {
			// Skip the range itself; still search inside it and the
			// predicate.
			for _, c := range adl.Children(q.Src) {
				rec(c)
			}
			rec(q.Pred)
			return
		}
		switch e.(type) {
		case *adl.Select, *adl.Map, *adl.Project, *adl.Flatten, *adl.Join,
			*adl.SetOp, *adl.Unnest, *adl.Nest:
			if ContainsTable(e) && len(adl.FreeVars(e)) == 0 {
				found = e
				return
			}
		}
		for _, c := range adl.Children(e) {
			rec(c)
		}
	}
	rec(p)
	return found
}

// composeSelect merges consecutive selections (from-clause unnesting):
// σ[x : p](σ[y : q](E)) ⇒ σ[y : q ∧ p[x := y]](E).
func composeSelect(e adl.Expr, _ *Context) (adl.Expr, bool) {
	outer, ok := e.(*adl.Select)
	if !ok {
		return e, false
	}
	inner, ok := outer.Src.(*adl.Select)
	if !ok {
		return e, false
	}
	// Rename the inner variable if the outer predicate would capture it.
	iv, iq := inner.Var, inner.Pred
	if adl.HasFree(outer.Pred, iv) && iv != outer.Var {
		nv := adl.Fresh(iv, outer.Pred, inner.Pred, inner.Src)
		iq = adl.Subst(iq, iv, adl.V(nv))
		iv = nv
	}
	merged := adl.AndE(iq, adl.Subst(outer.Pred, outer.Var, adl.V(iv)))
	return adl.Sel(iv, merged, inner.Src), true
}

// mapIdentity drops identity maps: α[x : x](E) ⇒ E.
func mapIdentity(e adl.Expr, _ *Context) (adl.Expr, bool) {
	n, ok := e.(*adl.Map)
	if !ok {
		return e, false
	}
	if v, isVar := n.Body.(*adl.Var); isVar && v.Name == n.Var {
		return n.Src, true
	}
	return e, false
}

// notNot eliminates double negation.
func notNot(e adl.Expr, _ *Context) (adl.Expr, bool) {
	n, ok := e.(*adl.Not)
	if !ok {
		return e, false
	}
	if inner, ok := n.X.(*adl.Not); ok {
		return inner.X, true
	}
	return e, false
}

// boolSimplify folds conjunctions and disjunctions with boolean literals and
// selections with literal predicates.
func boolSimplify(e adl.Expr, _ *Context) (adl.Expr, bool) {
	switch n := e.(type) {
	case *adl.And:
		if isTrue(n.L) {
			return n.R, true
		}
		if isTrue(n.R) {
			return n.L, true
		}
		if isFalse(n.L) {
			return adl.CBool(false), true
		}
		if isFalse(n.R) {
			return adl.CBool(false), true
		}
	case *adl.Or:
		if isFalse(n.L) {
			return n.R, true
		}
		if isFalse(n.R) {
			return n.L, true
		}
		if isTrue(n.L) {
			return adl.CBool(true), true
		}
		if isTrue(n.R) {
			return adl.CBool(true), true
		}
	case *adl.Not:
		if isTrue(n.X) {
			return adl.CBool(false), true
		}
		if isFalse(n.X) {
			return adl.CBool(true), true
		}
	case *adl.Select:
		if isTrue(n.Pred) {
			return n.Src, true
		}
	}
	return e, false
}

// NegationRules push negations inward, exposing the ¬∃ form that Rule 1
// turns into an antijoin (Rewriting Example 2 uses exactly this chain).
func NegationRules() []Rule {
	return []Rule{
		{Name: "demorgan-or", Apply: deMorganOr},
		{Name: "demorgan-and", Apply: deMorganAnd},
		{Name: "forall-to-notexists", Apply: forallToNotExists},
		{Name: "notforall-to-exists", Apply: notForallToExists},
	}
}

// notForallToExists rewrites a negated universal over a non-table range into
// existential form: ¬∀z ∈ e • p ⇒ ∃z ∈ e • ¬p. Together with
// forall-to-notexists this yields the paper's ∄y ∈ Y′ • ∃z ∈ x.c • y ∉ z
// shape of Rewriting Example 3. (Restricted to non-table ranges so the two
// rules cannot oscillate.)
func notForallToExists(e adl.Expr, _ *Context) (adl.Expr, bool) {
	n, ok := e.(*adl.Not)
	if !ok {
		return e, false
	}
	q, ok := n.X.(*adl.Quant)
	if !ok || q.Kind != adl.Forall || ContainsTable(q.Src) {
		return e, false
	}
	return adl.Ex(q.Var, q.Src, adl.NotE(q.Pred)), true
}

// deMorganOr: ¬(a ∨ b) ⇒ ¬a ∧ ¬b.
func deMorganOr(e adl.Expr, _ *Context) (adl.Expr, bool) {
	n, ok := e.(*adl.Not)
	if !ok {
		return e, false
	}
	or, ok := n.X.(*adl.Or)
	if !ok {
		return e, false
	}
	return adl.AndE(adl.NotE(or.L), adl.NotE(or.R)), true
}

// deMorganAnd: ¬(a ∧ b) ⇒ ¬a ∨ ¬b.
func deMorganAnd(e adl.Expr, _ *Context) (adl.Expr, bool) {
	n, ok := e.(*adl.Not)
	if !ok {
		return e, false
	}
	and, ok := n.X.(*adl.And)
	if !ok {
		return e, false
	}
	return adl.OrE(adl.NotE(and.L), adl.NotE(and.R)), true
}

// forallToNotExists rewrites universal quantification over a base table into
// negated existential form, the shape the antijoin consumes:
// ∀x ∈ E • p ⇒ ¬∃x ∈ E • ¬p, applied when E mentions a base table.
func forallToNotExists(e adl.Expr, _ *Context) (adl.Expr, bool) {
	n, ok := e.(*adl.Quant)
	if !ok || n.Kind != adl.Forall || !ContainsTable(n.Src) {
		return e, false
	}
	return adl.NotE(adl.Ex(n.Var, n.Src, adl.NotE(n.Pred))), true
}
