// Vectorized physical selection. Behind Config.Vectorized the planner
// compiles σ and π over a base extent to a batch pipeline: the extent scan
// becomes a columnar-projection scan and conjunctive selections become
// selection-vector filters with typed comparison kernels. With workers
// available (Config.Parallelism, under Config.Statistics), the scan+filter
// pipeline lowers to the morsel-driven VecExchange where the cost model finds
// it cheaper. A pipeline always ends at a VecAdapter, which hands its rows to
// the row operators above — the joins included, which price and pick their
// algorithm as they do without the flag. Other shapes — computed sources,
// non-extent operands — compile to the row operators, which remain the
// reference semantics.
package plan

import (
	"repro/internal/adl"
	"repro/internal/exec"
)

// vecSource compiles an expression into a batch pipeline when it has a
// vectorizable shape: a base extent, possibly under conjunctive selections.
// The scan projects attrs, the columns the filters above it read; it returns
// the pipeline and the source's estimate.
func (p *planner) vecSource(e adl.Expr, attrs []string) (exec.VecOp, nodeEst, bool) {
	switch n := e.(type) {
	case *adl.Table:
		scan := &exec.VecScan{Extent: n.Name, Attrs: attrs, Batch: p.cfg.batchSize()}
		rows := p.rows(n.Name)
		return scan, nodeEst{rows: rows, extent: n.Name,
			cost: costVecScan(rows, p.cfg.batchSize())}, true

	case *adl.Select:
		// An inner selection's columns come first in the projection.
		kernels, own := p.kernelsFor(n)
		src, se, ok := p.vecSource(n.Src, addAttrs(addAttrs(nil, own), attrs))
		if !ok {
			return nil, nodeEst{}, false
		}
		f := &exec.VecFilter{Src: src, Var: n.Var, Kernels: kernels}
		out := se.rows * p.card.selectivity(n.Pred, n.Var, se.extent)
		return f, nodeEst{rows: out, extent: se.extent,
			cost: se.cost + costVecFilter(se.rows, float64(len(kernels)), p.cfg.batchSize())}, true
	}
	return nil, nodeEst{}, false
}

// kernelsFor compiles a selection's conjuncts into filter kernels, one per
// conjunct in And order (matching the scalar short-circuit). Conjuncts of
// the shape x.a <op> const, const <op> x.a (mirrored) or x.a <op> x.b get a
// typed kernel over the named columns; everything else keeps only the
// row-wise fallback. The second result lists the columns typed kernels
// read.
func (p *planner) kernelsFor(n *adl.Select) ([]exec.VecCmp, []string) {
	cs := conjuncts(n.Pred)
	ks := make([]exec.VecCmp, 0, len(cs))
	var attrs []string
	for _, c := range cs {
		pred := exec.NewScalar(c, n.Var)
		k := exec.VecCmp{Pred: pred}
		if cmp, ok := c.(*adl.Cmp); ok && kernelOp(cmp.Op) {
			l, r, op := cmp.L, cmp.R, cmp.Op
			if fieldAttr(l, n.Var) == "" && fieldAttr(r, n.Var) != "" {
				l, r, op = r, l, mirrorCmp(op)
			}
			if a := fieldAttr(l, n.Var); a != "" {
				if cv, isConst := r.(*adl.Const); isConst {
					k = exec.VecCmp{Attr: a, Op: op, Const: cv.Val, Pred: pred}
					attrs = append(attrs, a)
				} else if ra := fieldAttr(r, n.Var); ra != "" {
					k = exec.VecCmp{Attr: a, Op: op, RAttr: ra, Pred: pred}
					attrs = append(attrs, a, ra)
				}
			}
		}
		ks = append(ks, k)
	}
	return ks, attrs
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

// addAttrs appends the new attributes not already present.
func addAttrs(have []string, add []string) []string {
	for _, a := range add {
		dup := false
		for _, h := range have {
			if h == a {
				dup = true
				break
			}
		}
		if !dup {
			have = append(have, a)
		}
	}
	return have
}

// tryVecSelect compiles σ into a batch pipeline behind the Vectorized flag.
func (p *planner) tryVecSelect(n *adl.Select) (exec.Operator, nodeEst, bool) {
	if !p.cfg.Vectorized {
		return nil, nodeEst{}, false
	}
	pipe, est, ok := p.vecSource(n, nil)
	if !ok {
		return nil, nodeEst{}, false
	}
	pipe, est = p.maybeExchange(pipe, est)
	op := &exec.VecAdapter{Src: pipe}
	p.record(op, est)
	return op, est, true
}

// tryVecProject compiles π over a vectorizable source: the batch pipeline
// runs untouched and the adapter applies the projection while
// materializing.
func (p *planner) tryVecProject(n *adl.Project) (exec.Operator, nodeEst, bool) {
	if !p.cfg.Vectorized {
		return nil, nodeEst{}, false
	}
	pipe, se, ok := p.vecSource(n.X, nil)
	if !ok {
		return nil, nodeEst{}, false
	}
	pipe, se = p.maybeExchange(pipe, se)
	op := &exec.VecAdapter{Src: pipe, Project: n.Attrs}
	est := se.withOwn(se.rows, se.rows*cRow)
	p.record(op, est)
	return op, est, true
}

// maybeExchange converts a serial scan+filter batch pipeline into the
// morsel-driven parallel exchange when workers are available and the cost
// model prices it below the serial pipeline. Non-convertible pipelines and
// single-worker configurations pass through unchanged.
func (p *planner) maybeExchange(pipe exec.VecOp, est nodeEst) (exec.VecOp, nodeEst) {
	if p.workers < 2 {
		return pipe, est
	}
	ex, ok := exec.Exchange(pipe, p.workers)
	if !ok {
		return pipe, est
	}
	parOwn := costVecExchange(p.rows(ex.Src.Extent), float64(len(ex.Kernels)), p.cfg.batchSize(), p.workers)
	if parOwn >= est.cost {
		return pipe, est
	}
	est.cost = parOwn
	return ex, est
}
