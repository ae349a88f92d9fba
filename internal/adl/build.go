package adl

import "repro/internal/value"

// Constructor helpers. These keep rewrite rules and tests close to the
// paper's notation: Sel("x", p, X) is σ[x : p](X), MapE("x", b, X) is
// α[x : b](X), and so on.

// C wraps a value as a constant expression.
func C(v value.Value) *Const { return &Const{Val: v} }

// CInt is a shorthand integer constant.
func CInt(i int64) *Const { return &Const{Val: value.Int(i)} }

// CStr is a shorthand string constant.
func CStr(s string) *Const { return &Const{Val: value.String(s)} }

// CBool is a shorthand boolean constant.
func CBool(b bool) *Const { return &Const{Val: value.Bool(b)} }

// V references a variable.
func V(name string) *Var { return &Var{Name: name} }

// T references a base table.
func T(name string) *Table { return &Table{Name: name} }

// Dot is attribute access x.a; extra names chain: Dot(V("d"), "supplier",
// "sname") is d.supplier.sname.
func Dot(x Expr, names ...string) Expr {
	for _, n := range names {
		x = &Field{X: x, Name: n}
	}
	return x
}

// Tup builds a tuple constructor from alternating name/Expr pairs.
func Tup(pairs ...any) *TupleExpr {
	t := &TupleExpr{}
	for i := 0; i < len(pairs); i += 2 {
		t.Names = append(t.Names, pairs[i].(string))
		t.Elems = append(t.Elems, pairs[i+1].(Expr))
	}
	return t
}

// SetOf builds a set constructor.
func SetOf(elems ...Expr) *SetExpr { return &SetExpr{Elems: elems} }

// SubT is tuple subscription x[attrs...].
func SubT(x Expr, attrs ...string) *Subscript { return &Subscript{X: x, Attrs: attrs} }

// Exc is the except operator; pairs alternate name/Expr.
func Exc(x Expr, pairs ...any) *ExceptExpr {
	e := &ExceptExpr{X: x}
	for i := 0; i < len(pairs); i += 2 {
		e.Names = append(e.Names, pairs[i].(string))
		e.Elems = append(e.Elems, pairs[i+1].(Expr))
	}
	return e
}

// Cat is tuple concatenation l ∘ r.
func Cat(l, r Expr) *Concat { return &Concat{L: l, R: r} }

// CmpE builds a comparison.
func CmpE(op CmpOp, l, r Expr) *Cmp { return &Cmp{Op: op, L: l, R: r} }

// EqE is l = r.
func EqE(l, r Expr) *Cmp { return &Cmp{Op: Eq, L: l, R: r} }

// NotE negates an expression.
func NotE(x Expr) *Not { return &Not{X: x} }

// AndE folds expressions with conjunction; AndE() is true.
func AndE(xs ...Expr) Expr {
	if len(xs) == 0 {
		return CBool(true)
	}
	out := xs[0]
	for _, x := range xs[1:] {
		out = &And{L: out, R: x}
	}
	return out
}

// Conjuncts splits a predicate into its conjunct list, dropping literal
// trues. It is the predicate-level inverse of AndE.
func Conjuncts(e Expr) []Expr {
	if a, ok := e.(*And); ok {
		return append(Conjuncts(a.L), Conjuncts(a.R)...)
	}
	if c, ok := e.(*Const); ok {
		if b, isB := c.Val.(value.Bool); isB && bool(b) {
			return nil
		}
	}
	return []Expr{e}
}

// OrE folds expressions with disjunction; OrE() is false.
func OrE(xs ...Expr) Expr {
	if len(xs) == 0 {
		return CBool(false)
	}
	out := xs[0]
	for _, x := range xs[1:] {
		out = &Or{L: out, R: x}
	}
	return out
}

// Sel is σ[v : pred](src).
func Sel(v string, pred, src Expr) *Select { return &Select{Var: v, Pred: pred, Src: src} }

// MapE is α[v : body](src).
func MapE(v string, body, src Expr) *Map { return &Map{Var: v, Body: body, Src: src} }

// Proj is π[attrs...](x).
func Proj(x Expr, attrs ...string) *Project { return &Project{Attrs: attrs, X: x} }

// Mu is μ_attr(x).
func Mu(attr string, x Expr) *Unnest { return &Unnest{Attr: attr, X: x} }

// Nu is ν_{attrs→as}(x).
func Nu(x Expr, as string, attrs ...string) *Nest { return &Nest{Attrs: attrs, As: as, X: x} }

// Flat is ∪(x), multiple union.
func Flat(x Expr) *Flatten { return &Flatten{X: x} }

// JoinE is the regular join L ⋈(lv,rv : on) R.
func JoinE(l Expr, lv, rv string, on, r Expr) *Join {
	return &Join{Kind: Inner, LVar: lv, RVar: rv, On: on, L: l, R: r}
}

// SemiJoin is L ⋉(lv,rv : on) R.
func SemiJoin(l Expr, lv, rv string, on, r Expr) *Join {
	return &Join{Kind: Semi, LVar: lv, RVar: rv, On: on, L: l, R: r}
}

// AntiJoin is L ▷(lv,rv : on) R.
func AntiJoin(l Expr, lv, rv string, on, r Expr) *Join {
	return &Join{Kind: Anti, LVar: lv, RVar: rv, On: on, L: l, R: r}
}

// NestJoin is the simple nestjoin L ⊣(lv,rv : on ; as) R (Definition 1).
func NestJoin(l Expr, lv, rv string, on Expr, as string, r Expr) *Join {
	return &Join{Kind: NestJ, LVar: lv, RVar: rv, On: on, As: as, L: l, R: r}
}

// NestJoinF is the extended nestjoin with a function applied to matching
// right tuples: L ⊣(lv,rv : on ; rv→fun ; as) R.
func NestJoinF(l Expr, lv, rv string, on Expr, fun Expr, as string, r Expr) *Join {
	return &Join{Kind: NestJ, LVar: lv, RVar: rv, On: on, As: as, RFun: fun, L: l, R: r}
}

// OuterJoin is the left outer join L ⟕(lv,rv : on) R.
func OuterJoin(l Expr, lv, rv string, on, r Expr) *Join {
	return &Join{Kind: Outer, LVar: lv, RVar: rv, On: on, L: l, R: r}
}

// Ex is ∃v ∈ src • pred.
func Ex(v string, src, pred Expr) *Quant {
	return &Quant{Kind: Exists, Var: v, Src: src, Pred: pred}
}

// All is ∀v ∈ src • pred.
func All(v string, src, pred Expr) *Quant {
	return &Quant{Kind: Forall, Var: v, Src: src, Pred: pred}
}

// AggE applies an aggregate.
func AggE(op AggOp, x Expr) *Agg { return &Agg{Op: op, X: x} }

// LetE binds v to val in body (the with-construct).
func LetE(v string, val, body Expr) *Let { return &Let{Var: v, Val: val, Body: body} }
