package rewrite

import (
	"repro/internal/adl"
	"repro/internal/value"
)

// conjuncts flattens nested conjunctions into a list.
func conjuncts(e adl.Expr) []adl.Expr {
	if a, ok := e.(*adl.And); ok {
		return append(conjuncts(a.L), conjuncts(a.R)...)
	}
	return []adl.Expr{e}
}

// isTrue reports whether e is the literal true.
func isTrue(e adl.Expr) bool {
	c, ok := e.(*adl.Const)
	if !ok {
		return false
	}
	b, ok := c.Val.(value.Bool)
	return ok && bool(b)
}

// isFalse reports whether e is the literal false.
func isFalse(e adl.Expr) bool {
	c, ok := e.(*adl.Const)
	if !ok {
		return false
	}
	b, ok := c.Val.(value.Bool)
	return ok && !bool(b)
}

// staticallyEmptySet reports whether e is syntactically the empty set.
func staticallyEmptySet(e adl.Expr) bool {
	switch n := e.(type) {
	case *adl.SetExpr:
		return len(n.Elems) == 0
	case *adl.Const:
		s, ok := n.Val.(*value.Set)
		return ok && s.Len() == 0
	}
	return false
}

// replaceExpr returns e with every occurrence of target replaced by repl.
// Subtrees under binders that rebind a free variable of target are left
// untouched: an occurrence there refers to different bindings and must not
// be replaced.
func replaceExpr(e, target, repl adl.Expr) adl.Expr {
	tfv := adl.FreeVars(target)
	var rec func(e adl.Expr) adl.Expr
	rec = func(e adl.Expr) adl.Expr {
		if adl.Equal(e, target) {
			return repl
		}
		switch n := e.(type) {
		case *adl.Map:
			src := rec(n.Src)
			if tfv[n.Var] {
				return &adl.Map{Var: n.Var, Body: n.Body, Src: src}
			}
			return &adl.Map{Var: n.Var, Body: rec(n.Body), Src: src}
		case *adl.Select:
			src := rec(n.Src)
			if tfv[n.Var] {
				return &adl.Select{Var: n.Var, Pred: n.Pred, Src: src}
			}
			return &adl.Select{Var: n.Var, Pred: rec(n.Pred), Src: src}
		case *adl.Quant:
			src := rec(n.Src)
			if tfv[n.Var] {
				return &adl.Quant{Kind: n.Kind, Var: n.Var, Pred: n.Pred, Src: src}
			}
			return &adl.Quant{Kind: n.Kind, Var: n.Var, Pred: rec(n.Pred), Src: src}
		case *adl.Let:
			val := rec(n.Val)
			if tfv[n.Var] {
				return &adl.Let{Var: n.Var, Val: val, Body: n.Body}
			}
			return &adl.Let{Var: n.Var, Val: val, Body: rec(n.Body)}
		case *adl.Join:
			l, r := rec(n.L), rec(n.R)
			j := &adl.Join{Kind: n.Kind, LVar: n.LVar, RVar: n.RVar, On: n.On,
				As: n.As, RFun: n.RFun, L: l, R: r}
			if !tfv[n.LVar] && !tfv[n.RVar] {
				j.On = rec(n.On)
				if n.RFun != nil {
					j.RFun = rec(n.RFun)
				}
			}
			return j
		default:
			return adl.Rebuild(e, rec)
		}
	}
	return rec(e)
}

// wrapWholeVar replaces free whole-tuple uses of the variable x by
// Subscript(x, attrs): after a nestjoin or grouping rewrite, x denotes the
// widened tuple, so uses of x "as the original tuple" must project back onto
// the original attributes (the paper's z[X]/x substitution). Field and
// subscript accesses are left alone — their attributes still exist on the
// widened tuple.
func wrapWholeVar(e adl.Expr, x string, attrs []string) adl.Expr {
	var rec func(e adl.Expr) adl.Expr
	rec = func(e adl.Expr) adl.Expr {
		switch n := e.(type) {
		case *adl.Var:
			if n.Name == x {
				return adl.SubT(adl.V(x), attrs...)
			}
			return n
		case *adl.Field:
			if v, ok := n.X.(*adl.Var); ok && v.Name == x {
				return n
			}
			return &adl.Field{X: rec(n.X), Name: n.Name}
		case *adl.Subscript:
			if v, ok := n.X.(*adl.Var); ok && v.Name == x {
				return n
			}
			return &adl.Subscript{X: rec(n.X), Attrs: n.Attrs}
		case *adl.Map:
			src := rec(n.Src)
			if n.Var == x {
				return &adl.Map{Var: n.Var, Body: n.Body, Src: src}
			}
			return &adl.Map{Var: n.Var, Body: rec(n.Body), Src: src}
		case *adl.Select:
			src := rec(n.Src)
			if n.Var == x {
				return &adl.Select{Var: n.Var, Pred: n.Pred, Src: src}
			}
			return &adl.Select{Var: n.Var, Pred: rec(n.Pred), Src: src}
		case *adl.Quant:
			src := rec(n.Src)
			if n.Var == x {
				return &adl.Quant{Kind: n.Kind, Var: n.Var, Pred: n.Pred, Src: src}
			}
			return &adl.Quant{Kind: n.Kind, Var: n.Var, Pred: rec(n.Pred), Src: src}
		case *adl.Let:
			val := rec(n.Val)
			if n.Var == x {
				return &adl.Let{Var: n.Var, Val: val, Body: n.Body}
			}
			return &adl.Let{Var: n.Var, Val: val, Body: rec(n.Body)}
		case *adl.Join:
			l, r := rec(n.L), rec(n.R)
			j := &adl.Join{Kind: n.Kind, LVar: n.LVar, RVar: n.RVar, On: n.On,
				As: n.As, RFun: n.RFun, L: l, R: r}
			if n.LVar != x && n.RVar != x {
				j.On = rec(n.On)
				if n.RFun != nil {
					j.RFun = rec(n.RFun)
				}
			}
			return j
		default:
			return adl.Rebuild(e, rec)
		}
	}
	return rec(e)
}

// usesWholeVar reports whether e uses the free variable x other than through
// a field access or subscript.
func usesWholeVar(e adl.Expr, x string) bool {
	wrapped := wrapWholeVar(e, x, []string{"\x00probe"})
	return !adl.Equal(wrapped, e)
}

// freshAttr picks an attribute name based on base that collides with none of
// the taken names.
func freshAttr(base string, taken []string) string {
	used := map[string]bool{}
	for _, t := range taken {
		used[t] = true
	}
	if !used[base] {
		return base
	}
	for i := 1; ; i++ {
		cand := base + string(rune('0'+i%10))
		if i >= 10 {
			cand = base + "_" + string(rune('a'+i-10))
		}
		if !used[cand] {
			return cand
		}
	}
}

// containsField reports whether Field(Var x, attr) occurs free in e (not
// under a rebinding of x).
func containsField(e adl.Expr, x, attr string) bool {
	found := false
	var rec func(e adl.Expr, shadowed bool)
	rec = func(e adl.Expr, shadowed bool) {
		if found {
			return
		}
		switch n := e.(type) {
		case *adl.Field:
			if v, ok := n.X.(*adl.Var); ok && v.Name == x && n.Name == attr && !shadowed {
				found = true
				return
			}
			rec(n.X, shadowed)
		case *adl.Map:
			rec(n.Src, shadowed)
			rec(n.Body, shadowed || n.Var == x)
		case *adl.Select:
			rec(n.Src, shadowed)
			rec(n.Pred, shadowed || n.Var == x)
		case *adl.Quant:
			rec(n.Src, shadowed)
			rec(n.Pred, shadowed || n.Var == x)
		case *adl.Let:
			rec(n.Val, shadowed)
			rec(n.Body, shadowed || n.Var == x)
		case *adl.Join:
			rec(n.L, shadowed)
			rec(n.R, shadowed)
			sh := shadowed || n.LVar == x || n.RVar == x
			rec(n.On, sh)
			if n.RFun != nil {
				rec(n.RFun, sh)
			}
		default:
			for _, c := range adl.Children(e) {
				rec(c, shadowed)
			}
		}
	}
	rec(e, false)
	return found
}
