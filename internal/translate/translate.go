// Package translate implements the paper's §3 mapping of OOSQL expressions
// into the algebra ADL. Translation is "simple, almost one-to-one": the
// select-from-where block becomes a map over a selection,
//
//	select e1 from x in e2 where e3  ⇒  α[x : e1′](σ[x : e3′](e2′)),
//
// nested OOSQL queries become nested algebraic expressions, and the with
// construct becomes a local binding. Translation subsumes name resolution
// and typechecking: identifiers resolve to iteration variables, with-
// bindings, or base tables; path expressions over class references are
// checked against the catalog; and object identity comparisons are lowered
// to the oid representation chosen by the logical database design (the
// paper's z = p[pid] idiom falls out of this lowering).
package translate

import (
	"fmt"

	"repro/internal/adl"
	"repro/internal/oosql"
	"repro/internal/schema"
	"repro/internal/types"
	"repro/internal/value"
)

// scope is a lexical environment mapping variables to checker types
// (reference-annotated; see types.Ref and types.Object).
type scope struct {
	name   string
	t      types.Type
	parent *scope
}

func (s *scope) bind(name string, t types.Type) *scope {
	return &scope{name: name, t: t, parent: s}
}

func (s *scope) lookup(name string) (types.Type, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if sc.name == name {
			return sc.t, true
		}
	}
	return nil, false
}

type translator struct {
	cat   *schema.Catalog
	fresh int
}

// Translate resolves, typechecks and translates an OOSQL query against a
// catalog. It returns the ADL expression and the (reference-annotated)
// result type; use types.Erase for the pure ADL type.
func Translate(q oosql.Expr, cat *schema.Catalog) (adl.Expr, types.Type, error) {
	tr := &translator{cat: cat}
	return tr.expr(q, nil)
}

// Parse translates OOSQL source text end to end.
func Parse(src string, cat *schema.Catalog) (adl.Expr, types.Type, error) {
	q, err := oosql.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	return Translate(q, cat)
}

func (tr *translator) freshVar(base string) string {
	tr.fresh++
	return fmt.Sprintf("%s_%d", base, tr.fresh)
}

func (tr *translator) expr(q oosql.Expr, sc *scope) (adl.Expr, types.Type, error) {
	switch n := q.(type) {
	case *oosql.Lit:
		t, err := types.Infer(n.Val)
		if err != nil {
			return nil, nil, errAt(n.Pos(), "%v", err)
		}
		return adl.C(n.Val), t, nil

	case *oosql.Ident:
		if t, ok := sc.lookup(n.Name); ok {
			return adl.V(n.Name), t, nil
		}
		if cl, ok := tr.cat.ByExtent(n.Name); ok {
			obj, err := tr.cat.ObjectType(cl)
			if err != nil {
				return nil, nil, errAt(n.Pos(), "%v", err)
			}
			return adl.T(n.Name), types.NewSet(types.Object{Class: cl.Name, Tup: obj}), nil
		}
		return nil, nil, errAt(n.Pos(), "unknown name %q (not a variable or base table)", n.Name)

	case *oosql.FieldAcc:
		return tr.fieldAcc(n, sc)

	case *oosql.TupleCtor:
		tt := &types.Tuple{}
		ctor := &adl.TupleExpr{}
		seen := map[string]bool{}
		for i, name := range n.Names {
			if seen[name] {
				return nil, nil, errAt(n.Pos(), "duplicate attribute %q in tuple constructor", name)
			}
			seen[name] = true
			e, t, err := tr.expr(n.Elems[i], sc)
			if err != nil {
				return nil, nil, err
			}
			ctor.Names = append(ctor.Names, name)
			ctor.Elems = append(ctor.Elems, e)
			tt.Fields = append(tt.Fields, types.Field{Name: name, Type: t})
		}
		return ctor, tt, nil

	case *oosql.SetCtor:
		var elem types.Type = types.Bottom
		ctor := &adl.SetExpr{}
		for _, el := range n.Elems {
			e, t, err := tr.expr(el, sc)
			if err != nil {
				return nil, nil, err
			}
			u, ok := types.Unify(elem, t)
			if !ok {
				return nil, nil, errAt(n.Pos(), "heterogeneous set constructor: %s vs %s", elem, t)
			}
			elem = u
			ctor.Elems = append(ctor.Elems, e)
		}
		return ctor, types.NewSet(elem), nil

	case *oosql.Unary:
		return tr.unary(n, sc)

	case *oosql.Binary:
		return tr.binary(n, sc)

	case *oosql.SFW:
		return tr.sfw(n, sc)

	case *oosql.Quant:
		return tr.quant(n, sc)

	case *oosql.Call:
		return tr.call(n, sc)
	}
	return nil, nil, errAt(q.Pos(), "unsupported expression %T", q)
}

// fieldAcc checks and translates a path step. Reference-valued operands
// (plain refs and unary reference tuples) navigate implicitly.
func (tr *translator) fieldAcc(n *oosql.FieldAcc, sc *scope) (adl.Expr, types.Type, error) {
	xe, xt, err := tr.expr(n.X, sc)
	if err != nil {
		return nil, nil, err
	}
	switch t := xt.(type) {
	case types.Object:
		cl, ok := tr.cat.Class(t.Class)
		if !ok {
			return nil, nil, errAt(n.Pos(), "unknown class %q", t.Class)
		}
		return tr.classField(xe, cl, n)
	case types.Ref:
		cl, ok := tr.cat.Class(t.Class)
		if !ok {
			return nil, nil, errAt(n.Pos(), "unknown class %q", t.Class)
		}
		// Implicit deref: the evaluator follows the oid.
		return tr.classField(xe, cl, n)
	case *types.Tuple:
		if ft, ok := t.Field(n.Name); ok {
			return &adl.Field{X: xe, Name: n.Name}, ft, nil
		}
		// A unary reference tuple (the RefSet element shape) navigates to
		// the referenced class: x.color ⇒ x.pid.color.
		if cls, idf, ok := refTupleClass(t); ok {
			cl, _ := tr.cat.Class(cls)
			return tr.classField(&adl.Field{X: xe, Name: idf}, cl, n)
		}
		return nil, nil, errAt(n.Pos(), "tuple %s has no attribute %q", t, n.Name)
	}
	return nil, nil, errAt(n.Pos(), "cannot access attribute %q of %s", n.Name, xt)
}

// classField resolves an attribute (or the identity field) of a class,
// honouring surface aliases, and emits the ADL field access.
func (tr *translator) classField(xe adl.Expr, cl *schema.Class, n *oosql.FieldAcc) (adl.Expr, types.Type, error) {
	if n.Name == cl.IDField {
		return &adl.Field{X: xe, Name: cl.IDField}, types.OIDType, nil
	}
	a, ok := cl.ResolveAttr(n.Name)
	if !ok {
		return nil, nil, errAt(n.Pos(), "class %s has no attribute %q", cl.Name, n.Name)
	}
	at, err := tr.cat.AttrType(a)
	if err != nil {
		return nil, nil, errAt(n.Pos(), "%v", err)
	}
	return &adl.Field{X: xe, Name: a.Name}, at, nil
}

// refTupleClass recognizes the RefSet element shape: a unary tuple whose
// single attribute is a class reference. It returns the class and the
// attribute (id-field) name.
func refTupleClass(t *types.Tuple) (class, idField string, ok bool) {
	if len(t.Fields) != 1 {
		return "", "", false
	}
	if r, isRef := t.Fields[0].Type.(types.Ref); isRef {
		return r.Class, t.Fields[0].Name, true
	}
	return "", "", false
}

func (tr *translator) unary(n *oosql.Unary, sc *scope) (adl.Expr, types.Type, error) {
	xe, xt, err := tr.expr(n.X, sc)
	if err != nil {
		return nil, nil, err
	}
	switch n.Op {
	case "not":
		if !types.Equal(xt, types.BoolType) {
			return nil, nil, errAt(n.Pos(), "not requires a boolean, got %s", xt)
		}
		return adl.NotE(xe), types.BoolType, nil
	case "-":
		switch {
		case types.Equal(xt, types.IntType):
			return &adl.Arith{Op: adl.Subtract, L: adl.CInt(0), R: xe}, types.IntType, nil
		case types.Equal(xt, types.FloatType):
			return &adl.Arith{Op: adl.Subtract, L: adl.C(value.Float(0)), R: xe}, types.FloatType, nil
		}
		return nil, nil, errAt(n.Pos(), "unary minus requires a number, got %s", xt)
	}
	return nil, nil, errAt(n.Pos(), "unknown unary operator %q", n.Op)
}

func (tr *translator) sfw(n *oosql.SFW, sc *scope) (adl.Expr, types.Type, error) {
	from, fromT, err := tr.expr(n.From, sc)
	if err != nil {
		return nil, nil, err
	}
	st, ok := fromT.(*types.Set)
	if !ok {
		return nil, nil, errAt(n.Pos(), "from-clause operand must be a set, got %s", fromT)
	}
	if _, shadow := sc.lookup(n.Var); shadow {
		// Shadowing is legal; the inner binding simply wins, as in the
		// paper's nested blocks that reuse variable names.
		_ = shadow
	}
	inner := sc.bind(n.Var, st.Elem)

	// with-bindings: scoped over the where- and select-clause, evaluated
	// with the iteration variable in scope (they are typically correlated:
	// Y′ = σ[y : Q(x, y)](Y) references x).
	wrap := func(body adl.Expr) adl.Expr { return body }
	wsc := inner
	for _, w := range n.Withs {
		val, vt, err := tr.expr(w.Val, wsc)
		if err != nil {
			return nil, nil, err
		}
		wsc = wsc.bind(w.Name, vt)
		name, v := w.Name, val
		prev := wrap
		wrap = func(body adl.Expr) adl.Expr { return prev(adl.LetE(name, v, body)) }
	}

	src := from
	if n.Where != nil {
		pred, pt, err := tr.expr(n.Where, wsc)
		if err != nil {
			return nil, nil, err
		}
		if !types.Equal(pt, types.BoolType) {
			return nil, nil, errAt(n.Where.Pos(), "where-clause must be boolean, got %s", pt)
		}
		src = adl.Sel(n.Var, wrap(pred), src)
	}

	sel, selT, err := tr.expr(n.Sel, wsc)
	if err != nil {
		return nil, nil, err
	}
	// Identity map elision: "select x from x in e" needs no α.
	if v, isVar := sel.(*adl.Var); isVar && v.Name == n.Var && len(n.Withs) == 0 {
		return src, types.NewSet(selT), nil
	}
	return adl.MapE(n.Var, wrap(sel), src), types.NewSet(selT), nil
}

func (tr *translator) quant(n *oosql.Quant, sc *scope) (adl.Expr, types.Type, error) {
	src, srcT, err := tr.expr(n.Src, sc)
	if err != nil {
		return nil, nil, err
	}
	st, ok := srcT.(*types.Set)
	if !ok {
		return nil, nil, errAt(n.Pos(), "quantifier range must be a set, got %s", srcT)
	}
	var pred adl.Expr = adl.CBool(true)
	if n.Pred != nil {
		p, pt, err := tr.expr(n.Pred, sc.bind(n.Var, st.Elem))
		if err != nil {
			return nil, nil, err
		}
		if !types.Equal(pt, types.BoolType) {
			return nil, nil, errAt(n.Pred.Pos(), "quantifier predicate must be boolean, got %s", pt)
		}
		pred = p
	}
	kind := adl.Exists
	if n.Kind == oosql.QForall {
		kind = adl.Forall
	}
	return &adl.Quant{Kind: kind, Var: n.Var, Src: src, Pred: pred}, types.BoolType, nil
}

func (tr *translator) call(n *oosql.Call, sc *scope) (adl.Expr, types.Type, error) {
	arg, argT, err := tr.expr(n.Args[0], sc)
	if err != nil {
		return nil, nil, err
	}
	st, ok := argT.(*types.Set)
	if !ok {
		return nil, nil, errAt(n.Pos(), "%s requires a set argument, got %s", n.Fn, argT)
	}
	switch n.Fn {
	case "count":
		return adl.AggE(adl.Count, arg), types.IntType, nil
	case "sum":
		if !types.Equal(st.Elem, types.IntType) && !types.Equal(st.Elem, types.FloatType) {
			return nil, nil, errAt(n.Pos(), "sum over non-numeric set %s", argT)
		}
		return adl.AggE(adl.Sum, arg), st.Elem, nil
	case "avg":
		if !types.Equal(st.Elem, types.IntType) && !types.Equal(st.Elem, types.FloatType) {
			return nil, nil, errAt(n.Pos(), "avg over non-numeric set %s", argT)
		}
		return adl.AggE(adl.Avg, arg), types.FloatType, nil
	case "min", "max":
		op := adl.Min
		if n.Fn == "max" {
			op = adl.Max
		}
		if !orderedType(st.Elem) {
			return nil, nil, errAt(n.Pos(), "%s over non-ordered set %s", n.Fn, argT)
		}
		return adl.AggE(op, arg), st.Elem, nil
	case "flatten":
		inner, ok := st.Elem.(*types.Set)
		if !ok {
			return nil, nil, errAt(n.Pos(), "flatten requires a set of sets, got %s", argT)
		}
		return adl.Flat(arg), inner, nil
	}
	return nil, nil, errAt(n.Pos(), "unknown function %q", n.Fn)
}

func orderedType(t types.Type) bool {
	switch t {
	case types.IntType, types.FloatType, types.StringType, types.DateType:
		return true
	}
	return false
}

func errAt(p oosql.Pos, format string, args ...any) error {
	return fmt.Errorf("translate: %s: %s", p, fmt.Sprintf(format, args...))
}
