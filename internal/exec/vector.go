package exec

import (
	"slices"

	"repro/internal/adl"
	"repro/internal/col"
	"repro/internal/eval"
	"repro/internal/value"
)

// VecCmp is one compiled filter conjunct: column-versus-constant or
// column-versus-column comparison. The typed kernels run only when the
// column kinds line up exactly with the reference semantics (evalCmp); any
// other shape evaluates Pred row-wise through the interpreter, so results
// and errors match the scalar Filter bit for bit.
type VecCmp struct {
	Attr string
	Op   adl.CmpOp
	// Const is the right operand for column-vs-constant kernels; when nil,
	// RAttr names the right column.
	Const value.Value
	// Param, if not nil, is the parameter whose argument is Const in a run:
	// ColumnScan.Open sets it from the run's Ctx.Args.
	Param *adl.Param
	RAttr string
	// Pred is the conjunct's scalar form (over the filter's Var), the
	// row-wise fallback.
	Pred Scalar
}

// withArgs returns ks with each parameter's argument as its Const: ks itself
// when no kernel has a parameter.
func withArgs(ks []VecCmp, args []value.Value) ([]VecCmp, error) {
	out := ks
	for i, k := range ks {
		if k.Param == nil {
			continue
		}
		v, err := eval.Arg(k.Param, args)
		if err != nil {
			return nil, err
		}
		if &out[0] == &ks[0] {
			out = slices.Clone(ks)
		}
		out[i].Const = v
	}
	return out, nil
}

// apply narrows sel to the rows satisfying the conjunct, writing in place.
func (k *VecCmp) apply(ctx *Ctx, p *col.Proj, sel []int32) ([]int32, error) {
	c := p.Col(k.Attr)
	if c == nil || c.Kind() == col.Mixed {
		return k.applyRows(ctx, p, sel)
	}
	if k.Const != nil {
		return k.applyConst(ctx, p, c, sel)
	}
	rc := p.Col(k.RAttr)
	if rc == nil || rc.Kind() == col.Mixed {
		return k.applyRows(ctx, p, sel)
	}
	return k.applyCols(ctx, p, c, rc, sel)
}

// applyRows is the reference fallback: evaluate the conjunct on each
// selected row through the interpreter.
func (k *VecCmp) applyRows(ctx *Ctx, p *col.Proj, sel []int32) ([]int32, error) {
	out := sel[:0]
	for _, i := range sel {
		keep, err := k.Pred.Bool(ctx, p.Row(i))
		if err != nil {
			return nil, err
		}
		if keep {
			out = append(out, i)
		}
	}
	return out, nil
}

// ordered reports whether a column kind supports the ordered comparisons
// (mirrors eval's orderedKind: int, float, string, date).
func ordered(k col.Kind) bool {
	return k == col.Int || k == col.Float || k == col.Str || k == col.Date
}

// applyConst runs the column-vs-constant kernel. A constant of the column's
// kind but no kernel — a set — goes row-wise like an untyped column.
func (k *VecCmp) applyConst(ctx *Ctx, p *col.Proj, c *col.Col, sel []int32) ([]int32, error) {
	if col.KindOf(k.Const.Kind()) != c.Kind() {
		// Cross-kind: Eq is uniformly false, Ne uniformly true
		// (value.Equal never crosses kinds); ordered comparisons error in
		// the interpreter — fall back so the error text matches.
		switch k.Op {
		case adl.Eq:
			return sel[:0], nil
		case adl.Ne:
			return sel, nil
		}
		return k.applyRows(ctx, p, sel)
	}
	if k.Op != adl.Eq && k.Op != adl.Ne && !ordered(c.Kind()) {
		return k.applyRows(ctx, p, sel)
	}
	out := sel[:0]
	switch c.Kind() {
	case col.Int, col.Date, col.OID, col.Bool:
		cv, _ := value.IntBits(k.Const)
		for _, i := range sel {
			if cmpInt64(c.Int(i), cv, k.Op) {
				out = append(out, i)
			}
		}
	case col.Float:
		cv := float64(k.Const.(value.Float))
		for _, i := range sel {
			if cmpFloat64(c.Float(i), cv, k.Op) {
				out = append(out, i)
			}
		}
	case col.Str:
		cv := string(k.Const.(value.String))
		for _, i := range sel {
			if cmpString(c.Str(i), cv, k.Op) {
				out = append(out, i)
			}
		}
	default:
		return k.applyRows(ctx, p, sel)
	}
	return out, nil
}

// applyCols runs the column-vs-column kernel.
func (k *VecCmp) applyCols(ctx *Ctx, p *col.Proj, l, r *col.Col, sel []int32) ([]int32, error) {
	if l.Kind() != r.Kind() {
		switch k.Op {
		case adl.Eq:
			return sel[:0], nil
		case adl.Ne:
			return sel, nil
		}
		return k.applyRows(ctx, p, sel)
	}
	if k.Op != adl.Eq && k.Op != adl.Ne && !ordered(l.Kind()) {
		return k.applyRows(ctx, p, sel)
	}
	out := sel[:0]
	switch l.Kind() {
	case col.Int, col.Date, col.OID, col.Bool:
		for _, i := range sel {
			if cmpInt64(l.Int(i), r.Int(i), k.Op) {
				out = append(out, i)
			}
		}
	case col.Float:
		for _, i := range sel {
			if cmpFloat64(l.Float(i), r.Float(i), k.Op) {
				out = append(out, i)
			}
		}
	case col.Str:
		for _, i := range sel {
			if cmpString(l.Str(i), r.Str(i), k.Op) {
				out = append(out, i)
			}
		}
	default:
		return k.applyRows(ctx, p, sel)
	}
	return out, nil
}

func cmpInt64(a, b int64, op adl.CmpOp) bool {
	switch op {
	case adl.Eq:
		return a == b
	case adl.Ne:
		return a != b
	case adl.Lt:
		return a < b
	case adl.Le:
		return a <= b
	case adl.Gt:
		return a > b
	case adl.Ge:
		return a >= b
	}
	return false
}

func cmpFloat64(a, b float64, op adl.CmpOp) bool {
	// Matches eval.Cmp: Eq/Ne via Go == (NaN ≠ NaN), ordered via the IEEE
	// operators (a NaN operand makes every ordered comparison false).
	switch op {
	case adl.Eq:
		return a == b
	case adl.Ne:
		return a != b
	case adl.Lt:
		return a < b
	case adl.Le:
		return a <= b
	case adl.Gt:
		return a > b
	case adl.Ge:
		return a >= b
	}
	return false
}

func cmpString(a, b string, op adl.CmpOp) bool {
	switch op {
	case adl.Eq:
		return a == b
	case adl.Ne:
		return a != b
	case adl.Lt:
		return a < b
	case adl.Le:
		return a <= b
	case adl.Gt:
		return a > b
	case adl.Ge:
		return a >= b
	}
	return false
}
