package adl

import (
	"fmt"
)

// FreeVars returns the set of variable names occurring free in e.
// Binders: Map/Select bind their variable in the body/predicate, Quant in
// the predicate, Let in the body, and Join binds both variables in the join
// predicate and the nestjoin right-tuple function. Range/source expressions
// are always outside the binding scope.
func FreeVars(e Expr) map[string]bool {
	fv := map[string]bool{}
	collectFree(e, map[string]bool{}, fv)
	return fv
}

func collectFree(e Expr, bound map[string]bool, fv map[string]bool) {
	switch n := e.(type) {
	case *Var:
		if !bound[n.Name] {
			fv[n.Name] = true
		}
	case *Map:
		collectFree(n.Src, bound, fv)
		withBound(bound, n.Var, func() { collectFree(n.Body, bound, fv) })
	case *Select:
		collectFree(n.Src, bound, fv)
		withBound(bound, n.Var, func() { collectFree(n.Pred, bound, fv) })
	case *Quant:
		collectFree(n.Src, bound, fv)
		withBound(bound, n.Var, func() { collectFree(n.Pred, bound, fv) })
	case *Let:
		collectFree(n.Val, bound, fv)
		withBound(bound, n.Var, func() { collectFree(n.Body, bound, fv) })
	case *Join:
		collectFree(n.L, bound, fv)
		collectFree(n.R, bound, fv)
		withBound(bound, n.LVar, func() {
			withBound(bound, n.RVar, func() {
				collectFree(n.On, bound, fv)
				if n.RFun != nil {
					collectFree(n.RFun, bound, fv)
				}
			})
		})
	default:
		for _, c := range Children(e) {
			collectFree(c, bound, fv)
		}
	}
}

// withBound runs f with name marked bound, restoring the previous state.
func withBound(bound map[string]bool, name string, f func()) {
	prev, had := bound[name]
	bound[name] = true
	f()
	if had {
		bound[name] = prev
	} else {
		delete(bound, name)
	}
}

// HasFree reports whether name occurs free in e.
func HasFree(e Expr, name string) bool { return FreeVars(e)[name] }

// BindsVar reports whether any iterator inside e binds the variable name.
func BindsVar(e Expr, name string) bool {
	found := false
	Walk(e, func(x Expr) bool {
		switch n := x.(type) {
		case *Map:
			found = found || n.Var == name
		case *Select:
			found = found || n.Var == name
		case *Quant:
			found = found || n.Var == name
		case *Let:
			found = found || n.Var == name
		case *Join:
			found = found || n.LVar == name || n.RVar == name
		}
		return !found
	})
	return found
}

// Fresh returns a variable name based on base that is free in none of the
// given expressions. It is deterministic.
func Fresh(base string, avoid ...Expr) string {
	used := map[string]bool{}
	for _, e := range avoid {
		for v := range FreeVars(e) {
			used[v] = true
		}
		// Bound variables are avoided too: reusing a bound name is legal but
		// makes printed rewrite traces confusing.
		Walk(e, func(x Expr) bool {
			switch n := x.(type) {
			case *Map:
				used[n.Var] = true
			case *Select:
				used[n.Var] = true
			case *Quant:
				used[n.Var] = true
			case *Let:
				used[n.Var] = true
			case *Join:
				used[n.LVar] = true
				used[n.RVar] = true
			}
			return true
		})
	}
	if !used[base] {
		return base
	}
	for i := 1; ; i++ {
		cand := fmt.Sprintf("%s%d", base, i)
		if !used[cand] {
			return cand
		}
	}
}

// Subst returns e with every free occurrence of the variable name replaced
// by repl. The substitution is capture-avoiding: binders whose variable
// occurs free in repl are alpha-renamed first.
func Subst(e Expr, name string, repl Expr) Expr {
	switch n := e.(type) {
	case *Var:
		if n.Name == name {
			return repl
		}
		return e
	case *Map:
		src := Subst(n.Src, name, repl)
		if n.Var == name {
			return &Map{Var: n.Var, Body: n.Body, Src: src}
		}
		v, body := avoidCapture(n.Var, n.Body, name, repl)
		return &Map{Var: v, Body: Subst(body, name, repl), Src: src}
	case *Select:
		src := Subst(n.Src, name, repl)
		if n.Var == name {
			return &Select{Var: n.Var, Pred: n.Pred, Src: src}
		}
		v, pred := avoidCapture(n.Var, n.Pred, name, repl)
		return &Select{Var: v, Pred: Subst(pred, name, repl), Src: src}
	case *Quant:
		src := Subst(n.Src, name, repl)
		if n.Var == name {
			return &Quant{Kind: n.Kind, Var: n.Var, Pred: n.Pred, Src: src}
		}
		v, pred := avoidCapture(n.Var, n.Pred, name, repl)
		return &Quant{Kind: n.Kind, Var: v, Pred: Subst(pred, name, repl), Src: src}
	case *Let:
		val := Subst(n.Val, name, repl)
		if n.Var == name {
			return &Let{Var: n.Var, Val: val, Body: n.Body}
		}
		v, body := avoidCapture(n.Var, n.Body, name, repl)
		return &Let{Var: v, Val: val, Body: Subst(body, name, repl)}
	case *Join:
		l := Subst(n.L, name, repl)
		r := Subst(n.R, name, repl)
		if n.LVar == name || n.RVar == name {
			return &Join{Kind: n.Kind, LVar: n.LVar, RVar: n.RVar, On: n.On,
				As: n.As, RFun: n.RFun, L: l, R: r}
		}
		lv, rv, on, rfun := n.LVar, n.RVar, n.On, n.RFun
		if HasFree(repl, lv) && (HasFree(on, name) || (rfun != nil && HasFree(rfun, name))) {
			nv := Fresh(lv, repl, on, e)
			on = Subst(on, lv, V(nv))
			if rfun != nil {
				rfun = Subst(rfun, lv, V(nv))
			}
			lv = nv
		}
		if HasFree(repl, rv) && (HasFree(on, name) || (rfun != nil && HasFree(rfun, name))) {
			nv := Fresh(rv, repl, on, e)
			on = Subst(on, rv, V(nv))
			if rfun != nil {
				rfun = Subst(rfun, rv, V(nv))
			}
			rv = nv
		}
		j := &Join{Kind: n.Kind, LVar: lv, RVar: rv, On: Subst(on, name, repl),
			As: n.As, L: l, R: r}
		if rfun != nil {
			j.RFun = Subst(rfun, name, repl)
		}
		return j
	default:
		return Rebuild(e, func(c Expr) Expr { return Subst(c, name, repl) })
	}
}

// avoidCapture alpha-renames the binder v of scope if v occurs free in repl
// and the substitution would actually descend into scope.
func avoidCapture(v string, scope Expr, name string, repl Expr) (string, Expr) {
	if !HasFree(repl, v) || !HasFree(scope, name) {
		return v, scope
	}
	nv := Fresh(v, repl, scope)
	return nv, Subst(scope, v, V(nv))
}
