// Access-path selection. chooseSelect prices the ways to run σ over a base
// extent in one candidate list — an IndexScan leaf with a residual Filter,
// and the ColumnScan over the extent's columns (vectorize.go) — and
// indexNLCandidate admits the index-nested-loop join into chooseEquiJoin's
// candidate set when the inner side of an equi-join is a bare extent with an
// index on a join-key attribute: the access-path choice Selinger-style
// optimizers price against the scan-based strategies. storage/index.go holds
// the index structures, exec/index.go the index operators.
package plan

import (
	"repro/internal/adl"
	"repro/internal/exec"
)

// indexAccess describes one usable indexed access of a σ predicate — a
// single equality conjunct, or the range bounds merged from one or two
// comparison conjuncts over the same ordered-indexed attribute.
type indexAccess struct {
	attr    string  // indexed attribute
	matches float64 // estimated rows the probe returns
	// eq is the equality key; nil selects the range form below.
	eq             adl.Expr
	lo, hi         adl.Expr
	loIncl, hiIncl bool
}

// constExpr reports whether e is evaluable at Open time: no free variables,
// so neither the iteration variable nor any correlated outer binding.
func constExpr(e adl.Expr) bool { return len(adl.FreeVars(e)) == 0 }

// indexableConjunct classifies one σ conjunct as an index access over the
// extent, or reports false. Equality needs any index kind on the attribute;
// the ordered comparisons need an ordered index. Match counts come from the
// shared estimator: histogram density for equalities, interpolated bucket
// fractions for range bounds, the NDV/default rules without histograms.
func (p *planner) indexableConjunct(c adl.Expr, v, extent string, rows float64) (indexAccess, bool) {
	cmp, ok := c.(*adl.Cmp)
	if !ok {
		return indexAccess{}, false
	}
	// Orient the comparison as field-op-constant.
	attr, other, op := orientCmp(cmp, v)
	if attr == "" || !constExpr(other) {
		return indexAccess{}, false
	}
	kind := p.cfg.Statistics.IndexKind(extent, attr)
	if kind == "" {
		return indexAccess{}, false
	}
	switch op {
	case adl.Eq:
		matches := rows * p.card.eqSelectivity(extent, attr, other)
		return indexAccess{attr: attr, matches: matches, eq: other}, true
	case adl.Lt, adl.Le, adl.Gt, adl.Ge:
		if kind != "ordered" {
			return indexAccess{}, false
		}
		a := indexAccess{attr: attr}
		switch op {
		case adl.Lt:
			a.hi = other
		case adl.Le:
			a.hi, a.hiIncl = other, true
		case adl.Gt:
			a.lo = other
		case adl.Ge:
			a.lo, a.loIncl = other, true
		}
		a.matches = rows * p.card.boundsSelectivity(extent, attr, a.lo, a.hi, a.loIncl, a.hiIncl)
		return a, true
	}
	return indexAccess{}, false
}

// selectCand is one way to run σ over a base extent: its estimate, and the
// builder that compiles it. Only the winner is built, so planning compiles
// each σ's scalars once.
type selectCand struct {
	est   nodeEst
	build func() exec.Operator
}

// chooseSelect prices both ways to run σ over a base extent — an IndexScan
// with the other conjuncts as a residual Filter, and a ColumnScan
// (vectorize.go) — and builds the cheaper; a tie goes to the IndexScan.
func (p *planner) chooseSelect(n *adl.Select, extent string) (exec.Operator, nodeEst) {
	rows := p.rows(extent)
	idx, indexed := p.indexSelect(n, extent, rows)
	best := p.batchSelect(n, extent, rows, rows*p.card.selectivity(n.Pred, n.Var, extent))
	if indexed && idx.est.cost <= best.est.cost {
		best = idx
	}
	op := best.build()
	p.record(op, best.est)
	return op, best.est
}

// indexSelect is chooseSelect's index candidate: the most selective indexable
// conjunct becomes the IndexScan, and the remaining conjuncts stay as a
// residual Filter on top.
func (p *planner) indexSelect(n *adl.Select, extent string, rows float64) (selectCand, bool) {
	if p.cfg.NoIndexes {
		return selectCand{}, false
	}
	cs := adl.Conjuncts(n.Pred)
	best, bestIdx := indexAccess{}, -1
	for i, c := range cs {
		a, ok := p.indexableConjunct(c, n.Var, extent, rows)
		if !ok {
			continue
		}
		if bestIdx < 0 || a.matches < best.matches {
			best, bestIdx = a, i
		}
	}
	if bestIdx < 0 {
		return selectCand{}, false
	}
	used := map[int]bool{bestIdx: true}
	if best.eq == nil {
		// A one-sided range can absorb the complementary bound from another
		// comparison conjunct over the same attribute, so lo ≤ x.a < hi
		// probes the ordered index once instead of fetching a half-open
		// range and filtering the rest away.
		merged := false
		for i, c := range cs {
			if used[i] {
				continue
			}
			a, ok := p.indexableConjunct(c, n.Var, extent, rows)
			if !ok || a.eq != nil || a.attr != best.attr {
				continue
			}
			switch {
			case best.lo == nil && a.lo != nil:
				best.lo, best.loIncl = a.lo, a.loIncl
				used[i], merged = true, true
			case best.hi == nil && a.hi != nil:
				best.hi, best.hiIncl = a.hi, a.hiIncl
				used[i], merged = true, true
			}
		}
		if merged {
			// Re-price the probe for the merged two-sided range: it returns
			// the rows between both bounds, not the one-sided (or flat
			// defaultSelectivity) guess either conjunct priced alone.
			best.matches = rows * p.card.boundsSelectivity(
				extent, best.attr, best.lo, best.hi, best.loIncl, best.hiIncl)
		}
	}
	var residual []adl.Expr
	for i, c := range cs {
		if !used[i] {
			residual = append(residual, c)
		}
	}

	note := "index scan on " + extent + "." + best.attr
	if best.eq == nil {
		note += " (range)"
	}
	scanEst := nodeEst{rows: best.matches, extent: extent, cost: costIndexScan(best.matches), note: note}
	scan := func() *exec.IndexScan {
		scan := &exec.IndexScan{Table: extent, Attr: best.attr}
		if best.eq != nil {
			s := exec.NewScalar(best.eq)
			scan.Eq = &s
		}
		if best.lo != nil {
			s := exec.NewScalar(best.lo)
			scan.Lo, scan.LoIncl = &s, best.loIncl
		}
		if best.hi != nil {
			s := exec.NewScalar(best.hi)
			scan.Hi, scan.HiIncl = &s, best.hiIncl
		}
		return scan
	}
	if len(residual) == 0 {
		return selectCand{scanEst, func() exec.Operator { return scan() }}, true
	}
	rest := adl.AndE(residual...)
	outRows := best.matches * p.card.selectivity(rest, n.Var, extent)
	est := nodeEst{rows: outRows, extent: extent, cost: scanEst.cost + best.matches*cEval + outRows*cRow}
	return selectCand{est, func() exec.Operator {
		child := scan()
		p.record(child, scanEst)
		return &exec.Filter{Child: child, Var: n.Var, Pred: exec.NewScalar(rest, n.Var)}
	}}, true
}

// indexNLCandidate checks whether the inner side of an equi-key join admits
// an index-nested-loop probe: the compiled inner operator must be the bare
// extent scan (an index covers every object of the extent, so any filtered
// or reshaped inner would let probes resurrect rows the plan already
// removed), and one inner key must be a plain indexed attribute. It returns
// the indexed attribute, the outer-side key expression paired with it, and
// the remaining conjuncts (other key equations plus the residual) that must
// run as the probe's residual predicate.
func (p *planner) indexNLCandidate(inner exec.Operator, innerExt, innerVar string,
	innerKeys, outerKeys []adl.Expr, residual []adl.Expr) (string, adl.Expr, []adl.Expr, bool) {
	if p.cfg.NoIndexes || innerExt == "" {
		return "", nil, nil, false
	}
	scan, ok := inner.(*exec.Scan)
	if !ok || scan.Table != innerExt {
		return "", nil, nil, false
	}
	for i := range innerKeys {
		attr := attrOf(innerKeys[i], innerVar)
		if attr == "" || p.cfg.Statistics.IndexKind(innerExt, attr) == "" {
			continue
		}
		var resid []adl.Expr
		for j := range innerKeys {
			if j != i {
				resid = append(resid, adl.EqE(outerKeys[j], innerKeys[j]))
			}
		}
		resid = append(resid, residual...)
		return attr, outerKeys[i], resid, true
	}
	return "", nil, nil, false
}
