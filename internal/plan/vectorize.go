// Vectorized physical selection. Behind Config.Vectorized the planner
// compiles eligible fragments to batch-at-a-time operators: extent scans
// become columnar-projection scans, conjunctive selections become selection-
// vector filters with typed comparison kernels, and the joins become the two
// batch join operators, each of every kind it has an output rule for:
// single-key equi-joins (inner, semi, anti, outer, nestjoin — residual
// conjuncts included) exec.VecHashJoin, set-probe joins (semi, anti,
// nestjoin) exec.VecSetJoin. With workers available (Config.Parallelism) and
// statistics to price them, the scan+filter pipeline additionally lowers to
// the morsel-driven VecExchange and a semi/anti/inner/outer equi-join to a
// VecHashJoin with as many Partitions — the batch-native parallel pair —
// where the cost model finds them cheaper. Ineligible shapes — computed or
// composite keys, non-extent sources — silently fall through to the scalar
// operators, which remain the reference semantics.
package plan

import (
	"repro/internal/adl"
	"repro/internal/exec"
)

// vecSource compiles an expression into a batch pipeline when it has a
// vectorizable shape: a base extent, possibly under conjunctive selections.
// It returns the pipeline, its scan leaf (so callers can accumulate the
// attributes they read columnar), and the source's estimate.
func (p *planner) vecSource(e adl.Expr) (exec.VecOp, *exec.VecScan, nodeEst, bool) {
	switch n := e.(type) {
	case *adl.Table:
		scan := &exec.VecScan{Extent: n.Name, Batch: p.cfg.batchSize()}
		est := unknownEst
		if p.statsMode() {
			if rows := p.cfg.Statistics.RowCount(n.Name); rows >= 0 {
				est = nodeEst{rows: float64(rows), known: true, extent: n.Name,
					cost: costVecScan(float64(rows), p.cfg.batchSize())}
			}
		}
		return scan, scan, est, true

	case *adl.Select:
		src, scan, se, ok := p.vecSource(n.Src)
		if !ok {
			return nil, nil, unknownEst, false
		}
		kernels, attrs := p.kernelsFor(n)
		scan.Attrs = addAttrs(scan.Attrs, attrs)
		f := &exec.VecFilter{Src: src, Var: n.Var, Kernels: kernels}
		est := unknownEst
		if se.known {
			out := se.rows * p.card.selectivity(n.Pred, n.Var, se.extent)
			est = nodeEst{rows: out, known: true, extent: se.extent,
				cost: se.cost + costVecFilter(se.rows, float64(len(kernels)), p.cfg.batchSize())}
		}
		return f, scan, est, true
	}
	return nil, nil, unknownEst, false
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
		return nil, unknownEst, false
	}
	pipe, _, est, ok := p.vecSource(n)
	if !ok {
		return nil, unknownEst, false
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
		return nil, unknownEst, false
	}
	pipe, _, se, ok := p.vecSource(n.X)
	if !ok {
		return nil, unknownEst, false
	}
	pipe, se = p.maybeExchange(pipe, se)
	op := &exec.VecAdapter{Src: pipe, Project: n.Attrs}
	est := se.withOwn(se.rows, se.rows*cRow)
	p.record(op, est)
	return op, est, true
}

// maybeExchange converts a serial scan+filter batch pipeline into the
// morsel-driven parallel exchange when workers are available and the cost
// model prices it below the serial pipeline. Non-convertible pipelines,
// unpriced ones and single-worker configurations pass through unchanged.
func (p *planner) maybeExchange(pipe exec.VecOp, est nodeEst) (exec.VecOp, nodeEst) {
	if p.workers < 2 || !est.known {
		return pipe, est
	}
	ex, ok := exec.Exchange(pipe, p.workers)
	if !ok {
		return pipe, est
	}
	rows := p.cfg.Statistics.RowCount(ex.Src.Extent)
	if rows < 0 {
		return pipe, est
	}
	parOwn := costVecExchange(float64(rows), float64(len(ex.Kernels)), p.cfg.batchSize(), p.workers)
	if parOwn >= est.cost {
		return pipe, est
	}
	est.cost = parOwn
	return ex, est
}

// tryVecJoin compiles eligible joins to batch operators behind the
// Vectorized flag: set-probe joins (semi, anti, nestjoin) and single-key
// equi-joins of every kind, residual conjuncts included, whose left operand
// is a vectorizable pipeline. Semi/anti/inner/outer equi-joins the cost model
// prices cheaper partitioned are partitioned over a morsel-exchanged probe
// pipeline.
func (p *planner) tryVecJoin(j *adl.Join) (exec.Operator, nodeEst, bool) {
	if !p.cfg.Vectorized {
		return nil, unknownEst, false
	}
	cs := conjuncts(j.On)

	if attr, rkeyExpr, ok := setProbeShape(j, cs); ok {
		if j.RFun != nil && j.Kind != adl.NestJ {
			return nil, unknownEst, false
		}
		switch j.Kind {
		case adl.Semi, adl.Anti, adl.NestJ:
		default:
			return nil, unknownEst, false
		}
		pipe, scan, le, ok := p.vecSource(j.L)
		if !ok {
			return nil, unknownEst, false
		}
		r, re := p.compile(j.R)
		scan.Attrs = addAttrs(scan.Attrs, []string{attr})
		rkey := exec.NewScalar(rkeyExpr, j.RVar)
		op := &exec.VecSetJoin{Kind: j.Kind, L: pipe, R: r, Attr: attr, RKey: rkey,
			As: j.As, RFun: rfunScalar(j)}
		est := unknownEst
		if p.statsMode() && le.known && re.known {
			avg := p.card.avgSetSize(le, attr)
			inner := finite(le.rows * re.rows / maxf(1, maxf(le.rows, re.rows)))
			out := joinOutRows(j.Kind, le.rows, re.rows, inner, le.rows, re.rows)
			est = nodeEst{rows: out, known: true, extent: joinExtent(j.Kind, le),
				cost: le.cost + re.cost + costVecSetProbe(le.rows, avg, re.rows, out, p.cfg.batchSize())}
		}
		p.record(op, est)
		return op, est, true
	}

	lkeys, rkeys, residual := splitEquiKeys(cs, j)
	if len(lkeys) != 1 {
		return nil, unknownEst, false
	}
	if j.RFun != nil && j.Kind != adl.NestJ {
		return nil, unknownEst, false
	}
	lattr := fieldAttr(lkeys[0], j.LVar)
	if lattr == "" {
		return nil, unknownEst, false
	}
	pipe, scan, le, ok := p.vecSource(j.L)
	if !ok {
		return nil, unknownEst, false
	}
	r, re := p.compile(j.R)
	scan.Attrs = addAttrs(scan.Attrs, []string{lattr})
	lkey := exec.NewScalar(lkeys[0], j.LVar)
	rkey := exec.NewScalar(rkeys[0], j.RVar)
	var res *exec.Scalar
	if len(residual) > 0 {
		s := exec.NewScalar(adl.AndE(residual...), j.LVar, j.RVar)
		res = &s
	}

	batch := p.cfg.batchSize()
	known := p.statsMode() && le.known && re.known
	var out float64
	if known {
		ndvL := p.card.keyNDV(le, lkeys, j.LVar)
		ndvR := p.card.keyNDV(re, rkeys, j.RVar)
		eqSel := p.card.joinEqSelectivity(le, lkeys[0], j.LVar, re, rkeys[0], j.RVar)
		inner := finite(le.rows * re.rows * eqSel)
		out = joinOutRows(j.Kind, le.rows, re.rows, inner, ndvL, ndvR)
	}

	op := &exec.VecHashJoin{Kind: j.Kind, L: pipe, R: r, LAttr: lattr, LKey: lkey,
		RKey: rkey, Residual: res, As: j.As, RFun: rfunScalar(j), Partitions: 1}
	own := costVecHash(re.rows, le.rows, out, batch)
	// The planner does not price a partitioned nestjoin: grouping stays serial.
	if part := costVecPartHash(re.rows, le.rows, out, batch, float64(p.workers)); known &&
		j.Kind != adl.NestJ && p.workers > 1 && part < own {
		// Parallel-vectorized: morsel-exchange the probe pipeline and
		// partition the build across the same worker count.
		op.L, le = p.maybeExchange(pipe, le)
		op.Partitions, own = p.workers, part
	}
	est := unknownEst
	if known {
		est = nodeEst{rows: out, known: true, extent: joinExtent(j.Kind, le),
			cost: le.cost + re.cost + own}
	}
	p.record(op, est)
	return op, est, true
}

// rfunScalar compiles a nestjoin's right-tuple function, if it has one.
func rfunScalar(j *adl.Join) *exec.Scalar {
	if j.RFun == nil {
		return nil
	}
	s := exec.NewScalar(j.RFun, j.LVar, j.RVar)
	return &s
}

// maxf is math.Max without the import noise in this file's hot path.
func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
