// The ColumnScan candidate of σ over a base extent. chooseSelect
// (access.go) prices it beside IndexScan and keeps the cheaper:
// ColumnScan reads a columnar projection of the extent and narrows a
// selection vector with typed comparison kernels. Its rows go to the row
// operators above — the joins included, which price and pick their algorithm
// whichever way their rows arrive.
package plan

import (
	"slices"

	"repro/internal/adl"
	"repro/internal/exec"
)

// batchSelect prices σ over extent (rows in, out estimated out) as a
// ColumnScan. A conjunct with a typed kernel costs cVecRow per input row;
// one without runs the interpreter row by row at cEval, as a Filter's
// predicate does.
func (p *planner) batchSelect(n *adl.Select, extent string, rows, out float64) selectCand {
	cs := adl.Conjuncts(n.Pred)
	perRow := 0.0
	for _, c := range cs {
		if kernel(c, n.Var).Attr != "" {
			perRow += cVecRow
		} else {
			perRow += cEval
		}
	}
	// The conjuncts compile into kernels, in And order (matching the scalar
	// short-circuit), over a projection of the columns they read.
	return selectCand{nodeEst{rows: out, extent: extent, cost: costColumnScan(rows, perRow)},
		func() exec.Operator {
			ks := make([]exec.VecCmp, len(cs))
			var attrs []string
			for i, c := range cs {
				ks[i] = kernel(c, n.Var)
				ks[i].Pred = exec.NewScalar(c, n.Var)
				for _, a := range []string{ks[i].Attr, ks[i].RAttr} {
					if a != "" && !slices.Contains(attrs, a) {
						attrs = append(attrs, a)
					}
				}
			}
			return &exec.ColumnScan{Extent: extent, Attrs: attrs, Var: n.Var, Kernels: ks}
		}}
}

// kernel classifies one conjunct of a σ over v. The shapes v.a <op> const,
// const <op> v.a (mirrored) and v.a <op> v.b get a typed kernel over the
// named columns, a parameter standing for a constant the run supplies;
// anything else has Attr "" and runs the row-wise fallback.
// Pred is left for the caller to compile.
func kernel(c adl.Expr, v string) exec.VecCmp {
	cmp, ok := c.(*adl.Cmp)
	if !ok || !kernelOp(cmp.Op) {
		return exec.VecCmp{}
	}
	l, r, op := cmp.L, cmp.R, cmp.Op
	if fieldAttr(l, v) == "" && fieldAttr(r, v) != "" {
		l, r, op = r, l, mirrorCmp(op)
	}
	a := fieldAttr(l, v)
	if a == "" {
		return exec.VecCmp{}
	}
	switch r := r.(type) {
	case *adl.Const:
		return exec.VecCmp{Attr: a, Op: op, Const: r.Val}
	case *adl.Param:
		return exec.VecCmp{Attr: a, Op: op, Param: r}
	}
	if ra := fieldAttr(r, v); ra != "" {
		return exec.VecCmp{Attr: a, Op: op, RAttr: ra}
	}
	return exec.VecCmp{}
}

// kernelOp reports whether a comparison operator has a typed kernel.
func kernelOp(op adl.CmpOp) bool {
	switch op {
	case adl.Eq, adl.Ne, adl.Lt, adl.Le, adl.Gt, adl.Ge:
		return true
	}
	return false
}

// mirrorCmp exchanges a comparison's operand roles (c < x.a ⇔ x.a > c).
func mirrorCmp(op adl.CmpOp) adl.CmpOp {
	switch op {
	case adl.Lt:
		return adl.Gt
	case adl.Le:
		return adl.Ge
	case adl.Gt:
		return adl.Lt
	case adl.Ge:
		return adl.Le
	}
	return op // Eq, Ne are symmetric
}

// fieldAttr resolves v.a field access to "a". Unlike attrOf it rejects the
// subscript form x[a]: a subscript evaluates to a unary tuple, not the
// attribute's value, so it must not feed typed column kernels.
func fieldAttr(e adl.Expr, v string) string {
	f, ok := e.(*adl.Field)
	if !ok {
		return ""
	}
	if vr, ok := f.X.(*adl.Var); ok && vr.Name == v {
		return f.Name
	}
	return ""
}
