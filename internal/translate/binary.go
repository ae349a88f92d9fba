package translate

import (
	"repro/internal/adl"
	"repro/internal/oosql"
	"repro/internal/types"
	"repro/internal/value"
)

// shape classifies how a checker type is represented at runtime, which
// drives the lowering of object identity comparisons:
//
//	shapeObj    — full object tuple (iteration over an extent)
//	shapeOID    — bare oid (a reference-valued attribute)
//	shapeRefTup — unary tuple holding an oid (element of a set-of-references
//	              attribute, the {(pid: oid)} mapping)
//	shapePlain  — anything else; ordinary value semantics
type shape uint8

const (
	shapePlain shape = iota
	shapeObj
	shapeOID
	shapeRefTup
)

// classify returns the shape of t and, for reference shapes, the class name.
func classify(t types.Type) (shape, string) {
	switch tt := t.(type) {
	case types.Object:
		return shapeObj, tt.Class
	case types.Ref:
		return shapeOID, tt.Class
	case *types.Tuple:
		if cls, _, ok := refTupleClass(tt); ok {
			return shapeRefTup, cls
		}
	}
	return shapePlain, ""
}

func (tr *translator) binary(n *oosql.Binary, sc *scope) (adl.Expr, types.Type, error) {
	switch n.Op {
	case oosql.OpAnd, oosql.OpOr:
		le, lt, err := tr.expr(n.L, sc)
		if err != nil {
			return nil, nil, err
		}
		re, rt, err := tr.expr(n.R, sc)
		if err != nil {
			return nil, nil, err
		}
		if !types.Equal(lt, types.BoolType) || !types.Equal(rt, types.BoolType) {
			return nil, nil, errAt(n.Pos(), "%s requires booleans, got %s and %s", n.Op, lt, rt)
		}
		if n.Op == oosql.OpAnd {
			return &adl.And{L: le, R: re}, types.BoolType, nil
		}
		return &adl.Or{L: le, R: re}, types.BoolType, nil

	case oosql.OpEq, oosql.OpNe:
		le, lt, err := tr.expr(n.L, sc)
		if err != nil {
			return nil, nil, err
		}
		re, rt, err := tr.expr(n.R, sc)
		if err != nil {
			return nil, nil, err
		}
		eq, err := tr.coerceEqual(n, le, lt, re, rt)
		if err != nil {
			return nil, nil, err
		}
		if n.Op == oosql.OpNe {
			return adl.NotE(eq), types.BoolType, nil
		}
		return eq, types.BoolType, nil

	case oosql.OpLt, oosql.OpLe, oosql.OpGt, oosql.OpGe:
		return tr.ordered(n, sc)

	case oosql.OpIn, oosql.OpNotIn:
		le, lt, err := tr.expr(n.L, sc)
		if err != nil {
			return nil, nil, err
		}
		re, rt, err := tr.expr(n.R, sc)
		if err != nil {
			return nil, nil, err
		}
		st, ok := rt.(*types.Set)
		if !ok {
			return nil, nil, errAt(n.Pos(), "in requires a set right operand, got %s", rt)
		}
		mem, err := tr.coerceMember(n, le, lt, re, st.Elem)
		if err != nil {
			return nil, nil, err
		}
		if n.Op == oosql.OpNotIn {
			return adl.NotE(mem), types.BoolType, nil
		}
		return mem, types.BoolType, nil

	case oosql.OpSubset, oosql.OpPSubset, oosql.OpSuperset, oosql.OpPSuperset, oosql.OpContains:
		return tr.setCompare(n, sc)

	case oosql.OpUnion, oosql.OpIntersect, oosql.OpMinus:
		le, lt, err := tr.expr(n.L, sc)
		if err != nil {
			return nil, nil, err
		}
		re, rt, err := tr.expr(n.R, sc)
		if err != nil {
			return nil, nil, err
		}
		u, ok := types.Unify(lt, rt)
		if !ok {
			return nil, nil, errAt(n.Pos(), "%s on incompatible sets %s and %s", n.Op, lt, rt)
		}
		if _, isSet := u.(*types.Set); !isSet {
			return nil, nil, errAt(n.Pos(), "%s requires sets, got %s", n.Op, u)
		}
		kind := map[oosql.BinOp]adl.SetOpKind{
			oosql.OpUnion: adl.Union, oosql.OpIntersect: adl.Intersect, oosql.OpMinus: adl.Diff,
		}[n.Op]
		return &adl.SetOp{Op: kind, L: le, R: re}, u, nil

	case oosql.OpAdd, oosql.OpSub, oosql.OpMul, oosql.OpDiv:
		le, lt, err := tr.expr(n.L, sc)
		if err != nil {
			return nil, nil, err
		}
		re, rt, err := tr.expr(n.R, sc)
		if err != nil {
			return nil, nil, err
		}
		if !types.Equal(lt, rt) || (!types.Equal(lt, types.IntType) && !types.Equal(lt, types.FloatType)) {
			return nil, nil, errAt(n.Pos(), "arithmetic on %s and %s", lt, rt)
		}
		op := map[oosql.BinOp]adl.ArithOp{
			oosql.OpAdd: adl.Add, oosql.OpSub: adl.Subtract, oosql.OpMul: adl.Mul, oosql.OpDiv: adl.Div,
		}[n.Op]
		return &adl.Arith{Op: op, L: le, R: re}, lt, nil
	}
	return nil, nil, errAt(n.Pos(), "unknown operator %s", n.Op)
}

func (tr *translator) ordered(n *oosql.Binary, sc *scope) (adl.Expr, types.Type, error) {
	le, lt, err := tr.expr(n.L, sc)
	if err != nil {
		return nil, nil, err
	}
	re, rt, err := tr.expr(n.R, sc)
	if err != nil {
		return nil, nil, err
	}
	if re, rt, err = coerceDate(n, re, rt, lt); err != nil {
		return nil, nil, err
	}
	if le, lt, err = coerceDate(n, le, lt, rt); err != nil {
		return nil, nil, err
	}
	if !types.Equal(lt, rt) || !orderedType(lt) {
		return nil, nil, errAt(n.Pos(), "ordered comparison %s on %s and %s", n.Op, lt, rt)
	}
	op := map[oosql.BinOp]adl.CmpOp{
		oosql.OpLt: adl.Lt, oosql.OpLe: adl.Le, oosql.OpGt: adl.Gt, oosql.OpGe: adl.Ge,
	}[n.Op]
	return adl.CmpE(op, le, re), types.BoolType, nil
}

// coerceDate turns x, an integer literal compared against the date-typed
// other, into that date: the paper writes d.date = 940101.
func coerceDate(n *oosql.Binary, x adl.Expr, xt, other types.Type) (adl.Expr, types.Type, error) {
	c, ok := x.(*adl.Const)
	if !ok || !types.Equal(xt, types.IntType) || !types.Equal(other, types.DateType) {
		return x, xt, nil
	}
	i, _ := c.Val.(value.Int)
	d, ok := DateOf(i)
	if !ok {
		return nil, nil, errAt(n.Pos(), "integer %d is out of range for a date", i)
	}
	return adl.C(d), types.DateType, nil
}

// DateOf is the date an integer literal stands for where a date is expected,
// false when it is outside a date's range.
func DateOf(i value.Int) (value.Date, bool) {
	d := value.Date(i)
	return d, value.Int(d) == i
}

// coerceEqual lowers equality between possibly reference-shaped operands to
// the oid representation. Mixed shapes compare identities:
//
//	Obj = Obj      ⇒  l.id = r.id
//	Obj = OID      ⇒  l.id = r
//	RefTup = Obj   ⇒  l = r[id]        (the paper's z = p[pid])
//	RefTup = OID   ⇒  l.id = r
//	same shapes    ⇒  l = r
func (tr *translator) coerceEqual(n *oosql.Binary, le adl.Expr, lt types.Type, re adl.Expr, rt types.Type) (adl.Expr, error) {
	ls, lc := classify(lt)
	rs, rc := classify(rt)
	if ls == shapePlain && rs == shapePlain {
		var err error
		if re, rt, err = coerceDate(n, re, rt, lt); err != nil {
			return nil, err
		}
		if le, lt, err = coerceDate(n, le, lt, rt); err != nil {
			return nil, err
		}
		if _, ok := types.Unify(lt, rt); !ok {
			return nil, errAt(n.Pos(), "cannot compare %s with %s", lt, rt)
		}
		return adl.EqE(le, re), nil
	}
	if ls == shapePlain || rs == shapePlain || lc != rc {
		return nil, errAt(n.Pos(), "cannot compare %s with %s", lt, rt)
	}
	id := tr.idField(lc)
	switch {
	case ls == rs:
		return adl.EqE(le, re), nil
	case ls == shapeObj && rs == shapeOID:
		return adl.EqE(adl.Dot(le, id), re), nil
	case ls == shapeOID && rs == shapeObj:
		return adl.EqE(le, adl.Dot(re, id)), nil
	case ls == shapeRefTup && rs == shapeObj:
		return adl.EqE(le, adl.SubT(re, id)), nil
	case ls == shapeObj && rs == shapeRefTup:
		return adl.EqE(adl.SubT(le, id), re), nil
	case ls == shapeRefTup && rs == shapeOID:
		return adl.EqE(adl.Dot(le, id), re), nil
	case ls == shapeOID && rs == shapeRefTup:
		return adl.EqE(le, adl.Dot(re, id)), nil
	}
	return nil, errAt(n.Pos(), "cannot compare %s with %s", lt, rt)
}

// coerceMember lowers "l in S". When l's shape matches S's element shape the
// membership test stays a single ∈; otherwise it becomes an existential
// quantification with a coerced identity equality, which the rewriter can
// unnest further (Rule 1).
func (tr *translator) coerceMember(n *oosql.Binary, le adl.Expr, lt types.Type, se adl.Expr, elemT types.Type) (adl.Expr, error) {
	ls, lc := classify(lt)
	es, ec := classify(elemT)
	if ls == es && lc == ec {
		if ls == shapePlain {
			if _, ok := types.Unify(lt, elemT); !ok {
				return nil, errAt(n.Pos(), "cannot test membership of %s in set of %s", lt, elemT)
			}
		}
		return adl.CmpE(adl.In, le, se), nil
	}
	if ls == shapePlain || es == shapePlain || lc != ec {
		return nil, errAt(n.Pos(), "cannot test membership of %s in set of %s", lt, elemT)
	}
	id := tr.idField(lc)
	// Two direct lowerings keep the single ∈ (the paper's p[pid] ∈ s.parts):
	switch {
	case ls == shapeObj && es == shapeRefTup:
		return adl.CmpE(adl.In, adl.SubT(le, id), se), nil
	case ls == shapeOID && es == shapeRefTup:
		return adl.CmpE(adl.In, adl.Tup(id, le), se), nil
	}
	// General lowering: ∃v ∈ S • id(l) = id(v).
	v := tr.freshVar("m")
	eq, err := tr.coerceEqual(n, le, lt, adl.V(v), elemT)
	if err != nil {
		return nil, err
	}
	return adl.Ex(v, se, eq), nil
}

// setCompare lowers the set comparison operators. When both element shapes
// agree the ADL set comparator applies directly; mixed reference shapes are
// expanded into the quantifier forms of the paper's Table 1 with coerced
// element equalities.
func (tr *translator) setCompare(n *oosql.Binary, sc *scope) (adl.Expr, types.Type, error) {
	le, lt, err := tr.expr(n.L, sc)
	if err != nil {
		return nil, nil, err
	}
	re, rt, err := tr.expr(n.R, sc)
	if err != nil {
		return nil, nil, err
	}
	lset, lok := lt.(*types.Set)
	rset, rok := rt.(*types.Set)
	if !lok || !rok {
		return nil, nil, errAt(n.Pos(), "%s requires set operands, got %s and %s", n.Op, lt, rt)
	}

	if n.Op == oosql.OpContains {
		// l ∋ r: r must be an element of the set-of-sets l.
		inner, ok := lset.Elem.(*types.Set)
		if !ok {
			return nil, nil, errAt(n.Pos(), "contains requires a set of sets on the left, got %s", lt)
		}
		if _, ok := types.Unify(types.Type(inner), types.Type(rset)); !ok {
			return nil, nil, errAt(n.Pos(), "contains element type mismatch: %s vs %s", inner, rt)
		}
		return adl.CmpE(adl.Has, le, re), types.BoolType, nil
	}

	ls, lc := classify(lset.Elem)
	rs, rc := classify(rset.Elem)
	if ls == rs && lc == rc {
		if ls == shapePlain {
			if _, ok := types.Unify(lset.Elem, rset.Elem); !ok {
				return nil, nil, errAt(n.Pos(), "%s on incompatible sets %s and %s", n.Op, lt, rt)
			}
		}
		op := map[oosql.BinOp]adl.CmpOp{
			oosql.OpSubset: adl.SubEq, oosql.OpPSubset: adl.Sub,
			oosql.OpSuperset: adl.SupEq, oosql.OpPSuperset: adl.Sup,
		}[n.Op]
		return adl.CmpE(op, le, re), types.BoolType, nil
	}
	if ls == shapePlain || rs == shapePlain || lc != rc {
		return nil, nil, errAt(n.Pos(), "%s on incompatible sets %s and %s", n.Op, lt, rt)
	}

	// Mixed reference shapes: expand per Table 1.
	// l ⊆ r ⇔ ∀x ∈ l • ∃y ∈ r • x = y.
	subEq := func(a adl.Expr, at types.Type, b adl.Expr, bt types.Type) (adl.Expr, error) {
		x := tr.freshVar("u")
		y := tr.freshVar("w")
		eq, err := tr.coerceEqual(n, adl.V(x), at, adl.V(y), bt)
		if err != nil {
			return nil, err
		}
		return adl.All(x, a, adl.Ex(y, b, eq)), nil
	}
	switch n.Op {
	case oosql.OpSubset:
		e, err := subEq(le, lset.Elem, re, rset.Elem)
		if err != nil {
			return nil, nil, err
		}
		return e, types.BoolType, nil
	case oosql.OpSuperset:
		e, err := subEq(re, rset.Elem, le, lset.Elem)
		if err != nil {
			return nil, nil, err
		}
		return e, types.BoolType, nil
	case oosql.OpPSubset:
		sub, err := subEq(le, lset.Elem, re, rset.Elem)
		if err != nil {
			return nil, nil, err
		}
		sup, err := subEq(re, rset.Elem, le, lset.Elem)
		if err != nil {
			return nil, nil, err
		}
		return adl.AndE(sub, adl.NotE(sup)), types.BoolType, nil
	case oosql.OpPSuperset:
		sup, err := subEq(re, rset.Elem, le, lset.Elem)
		if err != nil {
			return nil, nil, err
		}
		sub, err := subEq(le, lset.Elem, re, rset.Elem)
		if err != nil {
			return nil, nil, err
		}
		return adl.AndE(sup, adl.NotE(sub)), types.BoolType, nil
	}
	return nil, nil, errAt(n.Pos(), "unknown set comparison %s", n.Op)
}

// idField returns the identity field name of a class.
func (tr *translator) idField(class string) string {
	if cl, ok := tr.cat.Class(class); ok {
		return cl.IDField
	}
	return "oid"
}
