package adl

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/types"
	"repro/internal/value"
)

// Param is a lifted literal: slot Slot of a template's arguments, of atomic
// type Type. To the rewriter it is an opaque leaf equal only to a Param of
// the same slot, as two occurrences of one Const are. The planner reads it as
// the argument it is planned with, and it stays in the physical plan: a run
// takes the arguments in exec.Ctx.Args, the reference interpreter in its
// eval.Env. Bind makes a template a query with literals again.
type Param struct {
	Slot int
	Type types.Type
}

func (*Param) exprNode()        {}
func (e *Param) String() string { return fmt.Sprintf("$%d", e.Slot) }

// Lift splits e into a template and the literals it was written with: the
// rewrite of a query depends on its structure, never on the numbers and
// strings it compares attributes with, so one rewritten template serves every
// query of its shape. A literal moves to args when it is an Int, Float, String
// or Date operand of a comparison whose other operand is neither a literal
// nor an aggregate; equal literals share a slot. What a rule inspects by
// value stays: Bool literals, sets, constant comparisons (Reduce folds them),
// the literal next to an aggregate (Table 2's count(Y′) = 0; sum(∅) > 5).
// Lift appends to key an injective encoding of the template — per node, in
// pre-order: kind tag, operator, names, un-lifted literal, parameter slot and
// kind — so equal keys mean equal templates.
func Lift(e Expr, key []byte) (tmpl Expr, args []value.Value, _ []byte) {
	l := &lifter{key: key}
	l.rec = l.expr
	tmpl = l.expr(e)
	return tmpl, l.args, l.key
}

// Bind returns a copy of a template in which every Param is the literal
// args[Slot]. The template is left as it was: rewritten templates are shared.
func Bind(e Expr, args []value.Value) Expr {
	if len(args) == 0 {
		return e
	}
	var rec func(Expr) Expr
	rec = func(e Expr) Expr {
		if p, ok := e.(*Param); ok {
			return &Const{Val: args[p.Slot]}
		}
		return Rebuild(e, rec)
	}
	return rec(e)
}

type lifter struct {
	args []value.Value
	key  []byte
	rec  func(Expr) Expr
}

func (l *lifter) expr(e Expr) Expr {
	l.head(e)
	if c, ok := e.(*Cmp); ok {
		return &Cmp{Op: c.Op, L: l.operand(c.L, c.R), R: l.operand(c.R, c.L)}
	}
	return Rebuild(e, l.rec)
}

// liftable marks the kinds of literals Lift moves out.
var liftable = [value.KindSet + 1]bool{value.KindInt: true, value.KindFloat: true, value.KindString: true, value.KindDate: true}

// operand lifts x, one side of a comparison with other, if the rule allows.
func (l *lifter) operand(x, other Expr) Expr {
	c, isConst := x.(*Const)
	_, otherConst := other.(*Const)
	_, otherAgg := other.(*Agg)
	if !isConst || otherConst || otherAgg || !liftable[c.Val.Kind()] {
		return l.expr(x)
	}
	slot := slices.IndexFunc(l.args, func(a value.Value) bool { return value.Equal(a, c.Val) })
	if slot < 0 {
		slot = len(l.args)
		l.args = append(l.args, c.Val)
	}
	t, _ := types.Infer(c.Val) // atoms always type
	l.node('$', uint8(c.Val.Kind()))
	l.key = binary.AppendUvarint(l.key, uint64(slot))
	return &Param{Slot: slot, Type: t}
}

// node appends one node's tag, operator and names, each name length-prefixed.
func (l *lifter) node(tag, op uint8, names ...string) {
	l.key = binary.AppendUvarint(append(l.key, tag, op), uint64(len(names)))
	for _, s := range names {
		l.key = append(binary.AppendUvarint(l.key, uint64(len(s))), s...)
	}
}

// head encodes everything of e but its children. A tag fixes the number of
// children, except where the names, the flag or the count written here do.
func (l *lifter) head(e Expr) {
	switch n := e.(type) {
	case *Const:
		l.node('c', uint8(n.Val.Kind()), n.Val.String())
	case *Var:
		l.node('v', 0, n.Name)
	case *Table:
		l.node('t', 0, n.Name)
	case *Field:
		l.node('.', 0, n.Name)
	case *TupleExpr:
		l.node('T', 0, n.Names...)
	case *SetExpr:
		l.node('S', 0)
		l.key = binary.AppendUvarint(l.key, uint64(len(n.Elems)))
	case *Subscript:
		l.node('[', 0, n.Attrs...)
	case *ExceptExpr:
		l.node('x', 0, n.Names...)
	case *Concat:
		l.node('o', 0)
	case *Cmp:
		l.node('=', uint8(n.Op))
	case *Arith:
		l.node('+', uint8(n.Op))
	case *Not:
		l.node('!', 0)
	case *And:
		l.node('&', 0)
	case *Or:
		l.node('|', 0)
	case *SetOp:
		l.node('u', uint8(n.Op))
	case *Flatten:
		l.node('f', 0)
	case *Map:
		l.node('m', 0, n.Var)
	case *Select:
		l.node('s', 0, n.Var)
	case *Project:
		l.node('p', 0, n.Attrs...)
	case *Unnest:
		l.node('U', 0, n.Attr)
	case *Nest:
		l.node('N', 0, append([]string{n.As}, n.Attrs...)...)
	case *Join:
		rfun := uint8(0)
		if n.RFun != nil {
			rfun = 1
		}
		l.node('j', uint8(n.Kind)<<1|rfun, n.LVar, n.RVar, n.As)
	case *Quant:
		l.node('q', uint8(n.Kind), n.Var)
	case *Agg:
		l.node('a', uint8(n.Op))
	case *Let:
		l.node('l', 0, n.Var)
	default:
		panic(fmt.Sprintf("adl.Lift: unknown node %T", e))
	}
}
