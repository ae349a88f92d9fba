package adl

import (
	"fmt"

	"repro/internal/types"
)

// TypeResolver supplies schema information to static type inference: the
// (reference-annotated) element types of base tables and the object tuple
// types of classes (for typing implicit pointer navigation).
type TypeResolver interface {
	// TableElem returns the reference-annotated element tuple type of a base
	// table.
	TableElem(name string) (*types.Tuple, error)
	// ClassTuple returns the reference-annotated object type of a class.
	ClassTuple(class string) (*types.Tuple, error)
}

// TypeEnv maps free variables to their (reference-annotated) types.
type TypeEnv map[string]types.Type

// bind returns a copy of the environment extended with name = t.
func (env TypeEnv) bind(name string, t types.Type) TypeEnv {
	out := make(TypeEnv, len(env)+1)
	for k, v := range env {
		out[k] = v
	}
	out[name] = t
	return out
}

// Infer statically types an ADL expression. It mirrors the §3 semantics and
// is used by the rewriter (to compute the schema function SCH of operands)
// and by the planner. Reference-annotated types flow through so pointer
// navigation (Field on a Ref) can be typed.
func Infer(e Expr, env TypeEnv, r TypeResolver) (types.Type, error) {
	switch n := e.(type) {
	case *Const:
		return types.Infer(n.Val)

	case *Param:
		return n.Type, nil

	case *Var:
		t, ok := env[n.Name]
		if !ok {
			return nil, fmt.Errorf("adl: unbound variable %q in type inference", n.Name)
		}
		return t, nil

	case *Table:
		elem, err := r.TableElem(n.Name)
		if err != nil {
			return nil, err
		}
		return types.NewSet(elem), nil

	case *Field:
		xt, err := Infer(n.X, env, r)
		if err != nil {
			return nil, err
		}
		tt, err := derefTuple(xt, r)
		if err != nil {
			return nil, fmt.Errorf("adl: field .%s: %w", n.Name, err)
		}
		ft, ok := tt.Field(n.Name)
		if !ok {
			return nil, fmt.Errorf("adl: tuple %s has no attribute %q", tt, n.Name)
		}
		return ft, nil

	case *TupleExpr:
		out := &types.Tuple{}
		for i, name := range n.Names {
			ft, err := Infer(n.Elems[i], env, r)
			if err != nil {
				return nil, err
			}
			out.Fields = append(out.Fields, types.Field{Name: name, Type: ft})
		}
		return out, nil

	case *SetExpr:
		var elem types.Type = types.Bottom
		for _, el := range n.Elems {
			et, err := Infer(el, env, r)
			if err != nil {
				return nil, err
			}
			u, ok := types.Unify(elem, et)
			if !ok {
				return nil, fmt.Errorf("adl: heterogeneous set constructor: %s vs %s", elem, et)
			}
			elem = u
		}
		return types.NewSet(elem), nil

	case *Subscript:
		xt, err := Infer(n.X, env, r)
		if err != nil {
			return nil, err
		}
		tt, err := derefTuple(xt, r)
		if err != nil {
			return nil, fmt.Errorf("adl: subscript: %w", err)
		}
		out := &types.Tuple{}
		for _, a := range n.Attrs {
			ft, ok := tt.Field(a)
			if !ok {
				return nil, fmt.Errorf("adl: subscript on missing attribute %q", a)
			}
			if _, dup := out.Field(a); dup {
				return nil, fmt.Errorf("adl: subscript repeats attribute %q", a)
			}
			out.Fields = append(out.Fields, types.Field{Name: a, Type: ft})
		}
		return out, nil

	case *ExceptExpr:
		xt, err := Infer(n.X, env, r)
		if err != nil {
			return nil, err
		}
		tt, err := derefTuple(xt, r)
		if err != nil {
			return nil, fmt.Errorf("adl: except: %w", err)
		}
		out := &types.Tuple{Fields: append([]types.Field(nil), tt.Fields...)}
		for i, name := range n.Names {
			et, err := Infer(n.Elems[i], env, r)
			if err != nil {
				return nil, err
			}
			replaced := false
			for j := range out.Fields {
				if out.Fields[j].Name == name {
					out.Fields[j].Type = et
					replaced = true
					break
				}
			}
			if !replaced {
				out.Fields = append(out.Fields, types.Field{Name: name, Type: et})
			}
		}
		return out, nil

	case *Concat:
		lt, err := Infer(n.L, env, r)
		if err != nil {
			return nil, err
		}
		rt, err := Infer(n.R, env, r)
		if err != nil {
			return nil, err
		}
		ltt, err := derefTuple(lt, r)
		if err != nil {
			return nil, fmt.Errorf("adl: concat: %w", err)
		}
		rtt, err := derefTuple(rt, r)
		if err != nil {
			return nil, fmt.Errorf("adl: concat: %w", err)
		}
		return types.ConcatTuples(ltt, rtt)

	case *Cmp:
		if _, err := Infer(n.L, env, r); err != nil {
			return nil, err
		}
		if _, err := Infer(n.R, env, r); err != nil {
			return nil, err
		}
		return types.BoolType, nil

	case *Arith:
		lt, err := Infer(n.L, env, r)
		if err != nil {
			return nil, err
		}
		if _, err := Infer(n.R, env, r); err != nil {
			return nil, err
		}
		return lt, nil

	case *Not, *And, *Or, *Quant:
		for _, c := range Children(e) {
			var cenv TypeEnv = env
			if q, ok := e.(*Quant); ok && Equal(c, q.Pred) {
				st, err := Infer(q.Src, env, r)
				if err != nil {
					return nil, err
				}
				elem, err := elemType(st)
				if err != nil {
					return nil, fmt.Errorf("adl: quantifier range: %w", err)
				}
				cenv = env.bind(q.Var, elem)
			}
			if _, err := Infer(c, cenv, r); err != nil {
				return nil, err
			}
		}
		return types.BoolType, nil

	case *SetOp:
		lt, err := Infer(n.L, env, r)
		if err != nil {
			return nil, err
		}
		rt, err := Infer(n.R, env, r)
		if err != nil {
			return nil, err
		}
		u, ok := types.Unify(lt, rt)
		if !ok {
			return nil, fmt.Errorf("adl: set operation on %s and %s", lt, rt)
		}
		return u, nil

	case *Flatten:
		xt, err := Infer(n.X, env, r)
		if err != nil {
			return nil, err
		}
		st, ok := xt.(*types.Set)
		if !ok {
			return nil, fmt.Errorf("adl: flatten of non-set %s", xt)
		}
		inner, ok := st.Elem.(*types.Set)
		if !ok {
			return nil, fmt.Errorf("adl: flatten of set of non-sets %s", xt)
		}
		return inner, nil

	case *Map:
		st, err := Infer(n.Src, env, r)
		if err != nil {
			return nil, err
		}
		elem, err := elemType(st)
		if err != nil {
			return nil, fmt.Errorf("adl: map source: %w", err)
		}
		bt, err := Infer(n.Body, env.bind(n.Var, elem), r)
		if err != nil {
			return nil, err
		}
		return types.NewSet(bt), nil

	case *Select:
		st, err := Infer(n.Src, env, r)
		if err != nil {
			return nil, err
		}
		elem, err := elemType(st)
		if err != nil {
			return nil, fmt.Errorf("adl: select source: %w", err)
		}
		if _, err := Infer(n.Pred, env.bind(n.Var, elem), r); err != nil {
			return nil, err
		}
		return st, nil

	case *Project:
		xt, err := Infer(n.X, env, r)
		if err != nil {
			return nil, err
		}
		tt, err := tableElem(xt)
		if err != nil {
			return nil, fmt.Errorf("adl: project: %w", err)
		}
		out := &types.Tuple{}
		for _, a := range n.Attrs {
			ft, ok := tt.Field(a)
			if !ok {
				return nil, fmt.Errorf("adl: project on missing attribute %q", a)
			}
			out.Fields = append(out.Fields, types.Field{Name: a, Type: ft})
		}
		return types.NewSet(out), nil

	case *Unnest:
		xt, err := Infer(n.X, env, r)
		if err != nil {
			return nil, err
		}
		tt, err := tableElem(xt)
		if err != nil {
			return nil, fmt.Errorf("adl: unnest: %w", err)
		}
		at, ok := tt.Field(n.Attr)
		if !ok {
			return nil, fmt.Errorf("adl: unnest on missing attribute %q", n.Attr)
		}
		ast, ok := at.(*types.Set)
		if !ok {
			return nil, fmt.Errorf("adl: unnest on non-set attribute %q: %s", n.Attr, at)
		}
		inner, ok := ast.Elem.(*types.Tuple)
		if !ok {
			return nil, fmt.Errorf("adl: unnest of set of non-tuples %q: %s", n.Attr, at)
		}
		rest := &types.Tuple{}
		for _, f := range tt.Fields {
			if f.Name != n.Attr {
				rest.Fields = append(rest.Fields, f)
			}
		}
		cat, err := types.ConcatTuples(inner, rest)
		if err != nil {
			return nil, fmt.Errorf("adl: unnest: %w", err)
		}
		return types.NewSet(cat), nil

	case *Nest:
		xt, err := Infer(n.X, env, r)
		if err != nil {
			return nil, err
		}
		tt, err := tableElem(xt)
		if err != nil {
			return nil, fmt.Errorf("adl: nest: %w", err)
		}
		grouped := &types.Tuple{}
		rest := &types.Tuple{}
		isGrouped := map[string]bool{}
		for _, a := range n.Attrs {
			ft, ok := tt.Field(a)
			if !ok {
				return nil, fmt.Errorf("adl: nest on missing attribute %q", a)
			}
			grouped.Fields = append(grouped.Fields, types.Field{Name: a, Type: ft})
			isGrouped[a] = true
		}
		for _, f := range tt.Fields {
			if !isGrouped[f.Name] {
				rest.Fields = append(rest.Fields, f)
			}
		}
		if _, dup := rest.Field(n.As); dup {
			return nil, fmt.Errorf("adl: nest result attribute %q already exists", n.As)
		}
		rest.Fields = append(rest.Fields, types.Field{Name: n.As, Type: types.NewSet(grouped)})
		return types.NewSet(rest), nil

	case *Join:
		return inferJoinLike(n, env, r)

	case *Agg:
		xt, err := Infer(n.X, env, r)
		if err != nil {
			return nil, err
		}
		st, ok := xt.(*types.Set)
		if !ok {
			return nil, fmt.Errorf("adl: %s of non-set %s", n.Op, xt)
		}
		switch n.Op {
		case Count:
			return types.IntType, nil
		case Avg:
			return types.FloatType, nil
		default:
			return st.Elem, nil
		}

	case *Materialize:
		xt, err := Infer(n.X, env, r)
		if err != nil {
			return nil, err
		}
		tt, err := tableElem(xt)
		if err != nil {
			return nil, fmt.Errorf("adl: materialize: %w", err)
		}
		at, ok := tt.Field(n.Attr)
		if !ok {
			return nil, fmt.Errorf("adl: materialize on missing attribute %q", n.Attr)
		}
		var resolved types.Type
		switch att := at.(type) {
		case types.Ref:
			obj, err := r.ClassTuple(att.Class)
			if err != nil {
				return nil, err
			}
			resolved = obj
		case *types.Set:
			inner, ok := att.Elem.(*types.Tuple)
			if !ok {
				return nil, fmt.Errorf("adl: materialize of non-reference set %q", n.Attr)
			}
			cls, _, ok := refTupleClassT(inner)
			if !ok {
				return nil, fmt.Errorf("adl: materialize of non-reference set %q", n.Attr)
			}
			obj, err := r.ClassTuple(cls)
			if err != nil {
				return nil, err
			}
			resolved = types.NewSet(obj)
		default:
			return nil, fmt.Errorf("adl: materialize on non-reference attribute %q: %s", n.Attr, at)
		}
		out := &types.Tuple{Fields: append([]types.Field(nil), tt.Fields...)}
		if _, dup := tt.Field(n.As); dup {
			return nil, fmt.Errorf("adl: materialize result attribute %q already exists", n.As)
		}
		out.Fields = append(out.Fields, types.Field{Name: n.As, Type: resolved})
		return types.NewSet(out), nil

	case *Let:
		vt, err := Infer(n.Val, env, r)
		if err != nil {
			return nil, err
		}
		return Infer(n.Body, env.bind(n.Var, vt), r)
	}
	return nil, fmt.Errorf("adl: cannot infer type of %T", e)
}

func inferJoinLike(n *Join, env TypeEnv, r TypeResolver) (types.Type, error) {
	lt, err := Infer(n.L, env, r)
	if err != nil {
		return nil, err
	}
	rt, err := Infer(n.R, env, r)
	if err != nil {
		return nil, err
	}
	ltt, err := tableElem(lt)
	if err != nil {
		return nil, fmt.Errorf("adl: join left operand: %w", err)
	}
	rtt, err := tableElem(rt)
	if err != nil {
		return nil, fmt.Errorf("adl: join right operand: %w", err)
	}
	benv := env.bind(n.LVar, types.Type(ltt)).bind(n.RVar, types.Type(rtt))
	if _, err := Infer(n.On, benv, r); err != nil {
		return nil, err
	}
	switch n.Kind {
	case Semi, Anti:
		return types.NewSet(ltt), nil
	case NestJ:
		var member types.Type = rtt
		if n.RFun != nil {
			// The extended nestjoin collects G(x1, x2) values.
			mt, err := Infer(n.RFun, benv, r)
			if err != nil {
				return nil, err
			}
			member = mt
		}
		out := &types.Tuple{Fields: append([]types.Field(nil), ltt.Fields...)}
		if _, dup := ltt.Field(n.As); dup {
			return nil, fmt.Errorf("adl: nestjoin result attribute %q already exists", n.As)
		}
		out.Fields = append(out.Fields, types.Field{Name: n.As, Type: types.NewSet(member)})
		return types.NewSet(out), nil
	default: // Inner, Outer
		cat, err := types.ConcatTuples(ltt, rtt)
		if err != nil {
			return nil, fmt.Errorf("adl: join: %w", err)
		}
		return types.NewSet(cat), nil
	}
}

// derefTuple views t as a tuple, following class references (the implicit
// pointer navigation of path expressions).
func derefTuple(t types.Type, r TypeResolver) (*types.Tuple, error) {
	switch tt := t.(type) {
	case *types.Tuple:
		return tt, nil
	case types.Object:
		return tt.Tup, nil
	case types.Ref:
		return r.ClassTuple(tt.Class)
	}
	return nil, fmt.Errorf("expected a tuple, got %s", t)
}

// elemType returns the element type of a set type.
func elemType(t types.Type) (types.Type, error) {
	st, ok := t.(*types.Set)
	if !ok {
		return nil, fmt.Errorf("expected a set, got %s", t)
	}
	return st.Elem, nil
}

// tableElem returns the element tuple type of a table type.
func tableElem(t types.Type) (*types.Tuple, error) {
	et, err := elemType(t)
	if err != nil {
		return nil, err
	}
	switch tt := et.(type) {
	case *types.Tuple:
		return tt, nil
	case types.Object:
		return tt.Tup, nil
	}
	return nil, fmt.Errorf("expected a set of tuples, got %s", t)
}

// refTupleClassT recognizes the unary reference tuple shape {(id: ref(C))}.
func refTupleClassT(t *types.Tuple) (class, idField string, ok bool) {
	if len(t.Fields) != 1 {
		return "", "", false
	}
	if r, isRef := t.Fields[0].Type.(types.Ref); isRef {
		return r.Class, t.Fields[0].Name, true
	}
	return "", "", false
}
