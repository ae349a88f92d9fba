package adl

import "repro/internal/value"

// Rebuild returns a copy of e in which every direct subexpression c has been
// replaced by f(c). Leaves are returned unchanged (not copied). Rebuild is
// the single place that knows the shape of every node; traversals and the
// rewrite engine are built on it.
func Rebuild(e Expr, f func(Expr) Expr) Expr {
	switch n := e.(type) {
	case *Const, *Param, *Var, *Table:
		return e
	case *Field:
		return &Field{X: f(n.X), Name: n.Name}
	case *TupleExpr:
		return &TupleExpr{Names: n.Names, Elems: mapExprs(n.Elems, f)}
	case *SetExpr:
		return &SetExpr{Elems: mapExprs(n.Elems, f)}
	case *Subscript:
		return &Subscript{X: f(n.X), Attrs: n.Attrs}
	case *ExceptExpr:
		return &ExceptExpr{X: f(n.X), Names: n.Names, Elems: mapExprs(n.Elems, f)}
	case *Concat:
		return &Concat{L: f(n.L), R: f(n.R)}
	case *Cmp:
		return &Cmp{Op: n.Op, L: f(n.L), R: f(n.R)}
	case *Arith:
		return &Arith{Op: n.Op, L: f(n.L), R: f(n.R)}
	case *Not:
		return &Not{X: f(n.X)}
	case *And:
		return &And{L: f(n.L), R: f(n.R)}
	case *Or:
		return &Or{L: f(n.L), R: f(n.R)}
	case *SetOp:
		return &SetOp{Op: n.Op, L: f(n.L), R: f(n.R)}
	case *Flatten:
		return &Flatten{X: f(n.X)}
	case *Map:
		return &Map{Var: n.Var, Body: f(n.Body), Src: f(n.Src)}
	case *Select:
		return &Select{Var: n.Var, Pred: f(n.Pred), Src: f(n.Src)}
	case *Project:
		return &Project{Attrs: n.Attrs, X: f(n.X)}
	case *Unnest:
		return &Unnest{Attr: n.Attr, X: f(n.X)}
	case *Nest:
		return &Nest{Attrs: n.Attrs, As: n.As, X: f(n.X)}
	case *Join:
		j := &Join{Kind: n.Kind, LVar: n.LVar, RVar: n.RVar, On: f(n.On),
			As: n.As, L: f(n.L), R: f(n.R)}
		if n.RFun != nil {
			j.RFun = f(n.RFun)
		}
		return j
	case *Quant:
		return &Quant{Kind: n.Kind, Var: n.Var, Src: f(n.Src), Pred: f(n.Pred)}
	case *Agg:
		return &Agg{Op: n.Op, X: f(n.X)}
	case *Let:
		return &Let{Var: n.Var, Val: f(n.Val), Body: f(n.Body)}
	}
	panic("adl.Rebuild: unknown node")
}

func mapExprs(es []Expr, f func(Expr) Expr) []Expr {
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = f(e)
	}
	return out
}

// Children returns the direct subexpressions of e in a fixed order.
func Children(e Expr) []Expr {
	var out []Expr
	Rebuild(e, func(c Expr) Expr {
		out = append(out, c)
		return c
	})
	return out
}

// Transform applies rule bottom-up: children are transformed first, then the
// rule is applied to the rebuilt node. The rule must return its argument
// unchanged when it does not apply.
func Transform(e Expr, rule func(Expr) Expr) Expr {
	e = Rebuild(e, func(c Expr) Expr { return Transform(c, rule) })
	return rule(e)
}

// Walk calls visit on e and every descendant, pre-order. If visit returns
// false the node's children are skipped.
func Walk(e Expr, visit func(Expr) bool) {
	if !visit(e) {
		return
	}
	for _, c := range Children(e) {
		Walk(c, visit)
	}
}

// CountNodes reports how many nodes satisfy pred.
func CountNodes(e Expr, pred func(Expr) bool) int {
	n := 0
	Walk(e, func(x Expr) bool {
		if pred(x) {
			n++
		}
		return true
	})
	return n
}

// Equal reports structural equality of expressions (names compared
// literally, constants by deep value equality).
func Equal(a, b Expr) bool {
	switch an := a.(type) {
	case *Const:
		bn, ok := b.(*Const)
		return ok && value.Equal(an.Val, bn.Val)
	case *Param:
		bn, ok := b.(*Param)
		return ok && an.Slot == bn.Slot && an.Type == bn.Type
	case *Var:
		bn, ok := b.(*Var)
		return ok && an.Name == bn.Name
	case *Table:
		bn, ok := b.(*Table)
		return ok && an.Name == bn.Name
	case *Field:
		bn, ok := b.(*Field)
		return ok && an.Name == bn.Name && Equal(an.X, bn.X)
	case *TupleExpr:
		bn, ok := b.(*TupleExpr)
		return ok && eqNames(an.Names, bn.Names) && eqExprs(an.Elems, bn.Elems)
	case *SetExpr:
		bn, ok := b.(*SetExpr)
		return ok && eqExprs(an.Elems, bn.Elems)
	case *Subscript:
		bn, ok := b.(*Subscript)
		return ok && eqNames(an.Attrs, bn.Attrs) && Equal(an.X, bn.X)
	case *ExceptExpr:
		bn, ok := b.(*ExceptExpr)
		return ok && eqNames(an.Names, bn.Names) && Equal(an.X, bn.X) && eqExprs(an.Elems, bn.Elems)
	case *Concat:
		bn, ok := b.(*Concat)
		return ok && Equal(an.L, bn.L) && Equal(an.R, bn.R)
	case *Cmp:
		bn, ok := b.(*Cmp)
		return ok && an.Op == bn.Op && Equal(an.L, bn.L) && Equal(an.R, bn.R)
	case *Arith:
		bn, ok := b.(*Arith)
		return ok && an.Op == bn.Op && Equal(an.L, bn.L) && Equal(an.R, bn.R)
	case *Not:
		bn, ok := b.(*Not)
		return ok && Equal(an.X, bn.X)
	case *And:
		bn, ok := b.(*And)
		return ok && Equal(an.L, bn.L) && Equal(an.R, bn.R)
	case *Or:
		bn, ok := b.(*Or)
		return ok && Equal(an.L, bn.L) && Equal(an.R, bn.R)
	case *SetOp:
		bn, ok := b.(*SetOp)
		return ok && an.Op == bn.Op && Equal(an.L, bn.L) && Equal(an.R, bn.R)
	case *Flatten:
		bn, ok := b.(*Flatten)
		return ok && Equal(an.X, bn.X)
	case *Map:
		bn, ok := b.(*Map)
		return ok && an.Var == bn.Var && Equal(an.Body, bn.Body) && Equal(an.Src, bn.Src)
	case *Select:
		bn, ok := b.(*Select)
		return ok && an.Var == bn.Var && Equal(an.Pred, bn.Pred) && Equal(an.Src, bn.Src)
	case *Project:
		bn, ok := b.(*Project)
		return ok && eqNames(an.Attrs, bn.Attrs) && Equal(an.X, bn.X)
	case *Unnest:
		bn, ok := b.(*Unnest)
		return ok && an.Attr == bn.Attr && Equal(an.X, bn.X)
	case *Nest:
		bn, ok := b.(*Nest)
		return ok && eqNames(an.Attrs, bn.Attrs) && an.As == bn.As && Equal(an.X, bn.X)
	case *Join:
		bn, ok := b.(*Join)
		if !ok || an.Kind != bn.Kind || an.LVar != bn.LVar || an.RVar != bn.RVar || an.As != bn.As {
			return false
		}
		if (an.RFun == nil) != (bn.RFun == nil) {
			return false
		}
		if an.RFun != nil && !Equal(an.RFun, bn.RFun) {
			return false
		}
		return Equal(an.On, bn.On) && Equal(an.L, bn.L) && Equal(an.R, bn.R)
	case *Quant:
		bn, ok := b.(*Quant)
		return ok && an.Kind == bn.Kind && an.Var == bn.Var && Equal(an.Src, bn.Src) && Equal(an.Pred, bn.Pred)
	case *Agg:
		bn, ok := b.(*Agg)
		return ok && an.Op == bn.Op && Equal(an.X, bn.X)
	case *Let:
		bn, ok := b.(*Let)
		return ok && an.Var == bn.Var && Equal(an.Val, bn.Val) && Equal(an.Body, bn.Body)
	}
	panic("adl.Equal: unknown node")
}

func eqNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func eqExprs(a, b []Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
