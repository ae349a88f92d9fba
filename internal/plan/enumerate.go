// Phase 2 of the two-phase optimizer: cost-based join-order enumeration over
// the join graph of joingraph.go. Up to Config.MaxDPRelations the enumerator
// runs DPsize — dynamic programming over connected subgraphs, bushy trees
// included — pricing every candidate split with the same cost functions the
// physical operator selection uses and the collected NDVs driving the
// intermediate cardinalities. Above the cap it falls back to a greedy
// left-deep heuristic. The winning order is then rebuilt as adl.Join nodes
// (adl.ComposeConjunct re-binds the decomposed conjuncts) and every edge is
// handed to the existing physical operator selection — hash (serial or
// parallel)/nested-loop/index, build-side swap included.
package plan

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/adl"
	"repro/internal/exec"
)

// dpEntry is one memoized subproblem: the best plan found for a relation
// subset, with the split that achieved it.
type dpEntry struct {
	mask uint64
	rel  int // leaf index when the subset is a singleton, else -1
	l, r *dpEntry
	rows float64 // estimated output cardinality of the subset
	cost float64 // estimated cumulative cost of the best plan
}

// maxDP resolves the effective DPsize relation cap.
func (c Config) maxDP() int {
	if c.MaxDPRelations > 0 {
		return c.MaxDPRelations
	}
	return DefaultMaxDPRelations
}

// enumerateJoinOrder picks the cheapest join order for the graph, or nil
// when no plan exists (cannot happen once cross products are admitted, but
// kept defensive).
func (p *planner) enumerateJoinOrder(g *joinGraph) *dpEntry {
	if len(g.rels) > p.cfg.maxDP() {
		return p.greedyLeftDeep(g)
	}
	// Connected splits only; a disconnected graph needs cross products, which
	// the second pass admits everywhere (they still price high).
	if e := p.dpSize(g, false); e != nil {
		return e
	}
	return p.dpSize(g, true)
}

// dpSize runs the DPsize enumeration. With allowCross false only connected
// splits are considered.
func (p *planner) dpSize(g *joinGraph, allowCross bool) *dpEntry {
	n := len(g.rels)
	full := uint64(1)<<n - 1
	best := make(map[uint64]*dpEntry, 1<<n)
	for i := range g.rels {
		best[1<<i] = &dpEntry{mask: 1 << i, rel: i,
			rows: g.rels[i].est.rows, cost: g.rels[i].est.cost}
	}
	for size := 2; size <= n; size++ {
		for mask := uint64(1); mask <= full; mask++ {
			if bits.OnesCount64(mask) != size {
				continue
			}
			lowbit := mask & -mask
			// Enumerate unordered splits: s1 always keeps the lowest bit.
			for s1 := (mask - 1) & mask; s1 > 0; s1 = (s1 - 1) & mask {
				if s1&lowbit == 0 {
					continue
				}
				s2 := mask ^ s1
				e1, ok1 := best[s1]
				e2, ok2 := best[s2]
				if !ok1 || !ok2 {
					continue
				}
				if !allowCross && !g.connected(s1, s2) {
					continue
				}
				own := p.joinOwnCost(g, s1, s2)
				cost := e1.cost + e2.cost + own
				if cur, seen := best[mask]; !seen || cost < cur.cost {
					best[mask] = &dpEntry{mask: mask, rel: -1, l: e1, r: e2,
						rows: g.rows(mask), cost: cost}
				}
			}
		}
	}
	return best[full]
}

// greedyLeftDeep builds a left-deep order heuristically: start from the
// smallest relation, then repeatedly append the relation that joins the
// accumulated prefix most cheaply, preferring connected relations so cross
// products are a last resort.
func (p *planner) greedyLeftDeep(g *joinGraph) *dpEntry {
	n := len(g.rels)
	start := 0
	for i := 1; i < n; i++ {
		if g.rels[i].est.rows < g.rels[start].est.rows {
			start = i
		}
	}
	cur := &dpEntry{mask: 1 << start, rel: start,
		rows: g.rels[start].est.rows, cost: g.rels[start].est.cost}
	used := cur.mask
	for bits.OnesCount64(used) < n {
		bestIdx, bestCost, bestConnected := -1, math.Inf(1), false
		for i := 0; i < n; i++ {
			b := uint64(1) << i
			if used&b != 0 {
				continue
			}
			connected := g.connected(used, b)
			if bestConnected && !connected {
				continue
			}
			// finite() keeps saturated prefixes comparable: with every
			// candidate at +Inf the strict < would otherwise never pick one.
			cost := finite(g.rels[i].est.cost + p.joinOwnCost(g, used, b))
			if bestIdx < 0 || (connected && !bestConnected) || cost < bestCost {
				bestIdx, bestCost, bestConnected = i, cost, connected
			}
		}
		leaf := &dpEntry{mask: 1 << bestIdx, rel: bestIdx,
			rows: g.rels[bestIdx].est.rows, cost: g.rels[bestIdx].est.cost}
		used |= leaf.mask
		cur = &dpEntry{mask: used, rel: -1, l: cur, r: leaf,
			rows: g.rows(used), cost: cur.cost + bestCost}
	}
	return cur
}

// joinOwnCost prices joining two disjoint subsets with the cheapest
// applicable physical strategy — the same cost functions chooseEquiJoin
// ranks, orientation (build-side) freedom included, so the order search and
// the physical selection agree on what an edge costs.
func (p *planner) joinOwnCost(g *joinGraph, s1, s2 uint64) float64 {
	l, r := g.rows(s1), g.rows(s2)
	out := g.rows(s1 | s2)
	span := g.spanningConjs(s1, s2)

	nKeys, nResid := 0, 0
	var keySels []float64
	for _, ci := range span {
		c := &g.conjs[ci]
		if c.eq && oppositeSides(c, s1, s2) {
			nKeys++
			keySels = append(keySels, c.sel)
		} else {
			nResid++
		}
	}
	if nKeys == 0 {
		return costNL(l, r, out)
	}
	matches := finite(l * r * combineConj(keySels))
	residMatches := 0.0
	if nResid > 0 {
		residMatches = matches
	}
	own := math.Min(costHash(r, l, out, residMatches), costHash(l, r, out, residMatches))
	own = math.Min(own, costParallelHash(r, l, out, residMatches, p.workers))
	own = math.Min(own, costParallelHash(l, r, out, residMatches, p.workers))
	own = math.Min(own, costNL(l, r, out))
	if !p.cfg.NoIndexes {
		// Index-nested-loop candidates, so the order search sees the same
		// access paths physical selection will admit: when one side of the
		// split is a single bare-scanned relation with an index on its key
		// attribute, the other side can probe it per row. Pricing must agree
		// with chooseEquiJoin or the DP would pick orders whose edges then
		// compile to something else entirely.
		idxProbe := func(rel int, key adl.Expr, outerRows, sel float64) (float64, bool) {
			gr := &g.rels[rel]
			scan, isScan := gr.op.(*exec.Scan)
			if !isScan {
				return 0, false
			}
			attr := attrOf(key, gr.leafVar)
			if attr == "" || p.cfg.Statistics.IndexKind(scan.Table, attr) == "" {
				return 0, false
			}
			matches := finite(outerRows * gr.est.rows * sel)
			probeResid := 0.0
			if len(span) > 1 {
				probeResid = matches
			}
			// The DP adds both subtrees' costs to whatever this returns, but
			// an index probe never executes the inner leaf's scan — subtract
			// it so the DP's total matches what chooseEquiJoin will record.
			return costIndexNL(outerRows, matches, probeResid, out) - gr.est.cost, true
		}
		for _, ci := range span {
			c := &g.conjs[ci]
			if !c.eq {
				continue
			}
			// Either endpoint may be the probed inner: it must sit alone on
			// its side of the split, with the conjunct's other endpoint on
			// the outer side (so the probe key is computable there).
			for _, o := range [...]struct {
				inner, outer int
				key          adl.Expr
			}{
				{c.lrel, c.rrel, c.lkey},
				{c.rrel, c.lrel, c.rkey},
			} {
				ib, ob := uint64(1)<<o.inner, uint64(1)<<o.outer
				if s1 == ib && s2&ob != 0 {
					if v, ok := idxProbe(o.inner, o.key, r, c.sel); ok {
						own = math.Min(own, v)
					}
				}
				if s2 == ib && s1&ob != 0 {
					if v, ok := idxProbe(o.inner, o.key, l, c.sel); ok {
						own = math.Min(own, v)
					}
				}
			}
		}
	}
	return own
}

// oppositeSides reports whether an equi edge's two relations fall on
// opposite sides of the split (making it usable as a hash/sort key).
func oppositeSides(c *graphConj, s1, s2 uint64) bool {
	lb, rb := uint64(1)<<c.lrel, uint64(1)<<c.rrel
	return (lb&s1 != 0 && rb&s2 != 0) || (lb&s2 != 0 && rb&s1 != 0)
}

// buildJoinOrder rebuilds the chosen order as physical operators and
// annotates the root with how the order was found.
func (p *planner) buildJoinOrder(g *joinGraph, e *dpEntry) (exec.Operator, nodeEst) {
	op, est, _, _ := p.buildDPNode(g, e)
	how := fmt.Sprintf("order: dp over %d relations", len(g.rels))
	if len(g.rels) > p.cfg.maxDP() {
		how = fmt.Sprintf("order: greedy left-deep over %d relations", len(g.rels))
	}
	if est.note != "" {
		how = est.note + "; " + how
	}
	est.note = how
	p.record(op, est)
	return op, est
}

// buildDPNode recursively builds one dpEntry. It returns the operator, its
// estimate, the leaf variables covered by the subtree, and the variable the
// subtree's rows are bound to when it appears as a join operand.
func (p *planner) buildDPNode(g *joinGraph, e *dpEntry) (exec.Operator, nodeEst, []string, string) {
	if e.rel >= 0 {
		rel := &g.rels[e.rel]
		return rel.op, rel.est, []string{rel.leafVar}, rel.leafVar
	}
	lop, le, lvars, lv := p.buildDPNode(g, e.l)
	rop, re, rvars, rv := p.buildDPNode(g, e.r)
	if len(lvars) > 1 {
		lv = p.freshJoinVar(g)
	}
	if len(rvars) > 1 {
		rv = p.freshJoinVar(g)
	}

	span := g.spanningConjs(e.l.mask, e.r.mask)
	on := make([]adl.Expr, len(span))
	for i, ci := range span {
		on[i] = adl.ComposeConjunct(g.conjs[ci].expr, lvars, lv, rvars, rv)
	}
	j := &adl.Join{Kind: adl.Inner, LVar: lv, RVar: rv, On: adl.AndE(on...)}
	allVars := append(append([]string{}, lvars...), rvars...)

	cs := adl.Conjuncts(j.On)
	lkeys, rkeys, residual := splitEquiKeys(cs, j)
	if len(lkeys) > 0 {
		var res *exec.Scalar
		if len(residual) > 0 {
			s := exec.NewScalar(adl.AndE(residual...), j.LVar, j.RVar)
			res = &s
		}
		op, est := p.chooseEquiJoin(j, lop, rop, le, re, lkeys, rkeys, residual, res, nil)
		return op, est, allVars, ""
	}
	// No usable key: theta (or cross) edge, nested loop.
	nl := &exec.NLJoin{Kind: adl.Inner, L: lop, R: rop, LVar: lv, RVar: rv,
		Pred: exec.NewScalar(j.On, lv, rv)}
	est := nodeEst{rows: e.rows,
		cost: le.cost + re.cost + costNL(le.rows, re.rows, e.rows)}
	p.record(nl, est)
	return nl, est, allVars, ""
}
