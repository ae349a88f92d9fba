// Phase 1 of the two-phase optimizer: the join-graph IR. A nested chain of
// inner joins fixes the evaluation order the rewriter happened to emit;
// buildJoinGraph decomposes the chain (via adl.DecomposeJoinTree) into an
// n-way join graph — relations are base extents or opaque subplans, edges
// are the equi-key and theta conjuncts connecting two relations, and
// single-relation conjuncts are pushed down as selections on their leaf.
// Phase 2 (enumerate.go) prices join orders over this graph; the chosen
// order is handed back to the existing physical operator selection.
package plan

import (
	"fmt"
	"math/bits"

	"repro/internal/adl"
	"repro/internal/exec"
)

// DefaultMaxDPRelations is the relation count up to which the enumerator
// runs exhaustive DPsize over connected subgraphs; larger graphs fall back
// to the greedy left-deep heuristic. 2^10 subsets keep planning well under a
// millisecond; the exponential cliff beyond that is not worth the marginal
// plans.
const DefaultMaxDPRelations = 10

// maxGraphRels bounds the graph at the subset-bitmask width.
const maxGraphRels = 63

// graphRel is one relation of the join graph: a leaf of the decomposed join
// tree with its single-relation filters folded in, already compiled so the
// enumerator can price against its estimated cardinality.
type graphRel struct {
	leafVar string
	op      exec.Operator
	est     nodeEst
}

// graphConj is one predicate conjunct of the graph, in leaf-variable form.
// Conjuncts referencing exactly two relations are the graph's edges; an
// equi-comparison between single-relation sides additionally carries the key
// expressions that make hash/sort strategies applicable.
type graphConj struct {
	expr adl.Expr
	mask uint64 // referenced relations
	// eq marks a usable equi-key edge: lrel/rrel are the two relations and
	// lkey/rkey the key expressions in terms of their leaf variables.
	eq         bool
	lrel, rrel int
	lkey, rkey adl.Expr
	// sel is the conjunct's estimated selectivity.
	sel float64
}

// joinGraph is the logical IR the enumerator works on.
type joinGraph struct {
	rels  []graphRel
	conjs []graphConj
	// root is the original expression, used to mint fresh intermediate
	// variable names during recomposition.
	root adl.Expr

	rowsMemo map[uint64]float64
}

// isReorderableJoin reports whether e is an inner join the enumerator may
// flatten.
func isReorderableJoin(e adl.Expr) bool {
	j, ok := e.(*adl.Join)
	return ok && adl.Reorderable(j)
}

// leafAttrs resolves the output attribute names of a decomposition leaf from
// collected statistics, through the attribute-preserving wrappers.
func (p *planner) leafAttrs(e adl.Expr) []string {
	switch n := e.(type) {
	case *adl.Table:
		return p.cfg.Statistics.Attributes(n.Name)
	case *adl.Select:
		return p.leafAttrs(n.Src)
	case *adl.Project:
		return n.Attrs
	case *adl.Rename:
		base := p.leafAttrs(n.X)
		if base == nil {
			return nil
		}
		out := make([]string, len(base))
		for i, a := range base {
			if a == n.From {
				a = n.To
			}
			out[i] = a
		}
		return out
	}
	return nil
}

// buildJoinGraph decomposes the inner-join chain rooted at j and classifies
// its conjuncts. It fails (ok == false) when the chain does not decompose,
// has fewer than three relations (nothing to reorder) or more than the
// bitmask width, or when a conjunct references no relation at all.
func (p *planner) buildJoinGraph(j *adl.Join) (*joinGraph, bool) {
	tree, ok := adl.DecomposeJoinTree(j, p.leafAttrs)
	if !ok || len(tree.Leaves) < 3 || len(tree.Leaves) > maxGraphRels {
		return nil, false
	}
	g := &joinGraph{root: j, rowsMemo: map[uint64]float64{}}

	varBit := map[string]int{}
	for i, lf := range tree.Leaves {
		varBit[lf.Var] = i
	}

	// Classify conjuncts: single-relation ones become leaf filters, the rest
	// graph predicates.
	filters := make([][]adl.Expr, len(tree.Leaves))
	var conjs []graphConj
	for _, c := range tree.Conjs {
		mask := uint64(0)
		for v := range adl.FreeVars(c) {
			if i, isLeaf := varBit[v]; isLeaf {
				mask |= 1 << i
			}
		}
		switch bits.OnesCount64(mask) {
		case 0:
			// A conjunct anchored to no relation (constant or purely
			// correlated) has no place in the graph.
			return nil, false
		case 1:
			i := bits.TrailingZeros64(mask)
			filters[i] = append(filters[i], c)
		default:
			gc := graphConj{expr: c, mask: mask}
			if cmp, isCmp := c.(*adl.Cmp); isCmp && cmp.Op == adl.Eq && bits.OnesCount64(mask) == 2 {
				lv, lok := soleLeafVar(cmp.L, varBit)
				rv, rok := soleLeafVar(cmp.R, varBit)
				if lok && rok && lv != rv {
					gc.eq = true
					gc.lrel, gc.rrel = lv, rv
					gc.lkey, gc.rkey = cmp.L, cmp.R
				}
			}
			conjs = append(conjs, gc)
		}
	}

	// Compile the (filtered) leaves; the enumerator prices their estimates.
	g.rels = make([]graphRel, len(tree.Leaves))
	for i, lf := range tree.Leaves {
		expr := lf.Expr
		if len(filters[i]) > 0 {
			expr = adl.Sel(lf.Var, adl.AndE(filters[i]...), expr)
		}
		op, est := p.compile(expr)
		g.rels[i] = graphRel{leafVar: lf.Var, op: op, est: est}
	}

	// Estimate per-conjunct selectivities, now that leaf estimates exist.
	for i := range conjs {
		conjs[i].sel = p.conjSelectivity(g, &conjs[i])
	}
	g.conjs = conjs
	return g, true
}

// soleLeafVar reports the single leaf relation an expression references, if
// it references exactly one.
func soleLeafVar(e adl.Expr, varBit map[string]int) (int, bool) {
	rel, n := -1, 0
	for v := range adl.FreeVars(e) {
		if i, isLeaf := varBit[v]; isLeaf {
			rel = i
			n++
		}
	}
	return rel, n == 1
}

// conjSelectivity estimates what fraction of the Cartesian pairs a graph
// conjunct keeps: equi-key edges through the shared estimator (histogram
// intersection when both key attributes carry histograms, the larger-NDV
// containment rule otherwise), everything else the default guess.
func (p *planner) conjSelectivity(g *joinGraph, c *graphConj) float64 {
	if !c.eq {
		return defaultSelectivity
	}
	lrel, rrel := &g.rels[c.lrel], &g.rels[c.rrel]
	return p.card.joinEqSelectivity(lrel.est, c.lkey, lrel.leafVar,
		rrel.est, c.rkey, rrel.leafVar)
}

// rows estimates the output cardinality of joining the relation subset mask:
// the product of the member cardinalities times the combined selectivity of
// every conjunct internal to the subset (combineConj — the same exponential
// backoff the σ estimator uses, so multi-conjunct subsets never estimate
// above their most selective edge applied alone). The estimate depends only
// on the subset, never on a join order, which keeps the DP's per-subset
// memoization sound.
func (g *joinGraph) rows(mask uint64) float64 {
	if v, ok := g.rowsMemo[mask]; ok {
		return v
	}
	rows := 1.0
	for i := range g.rels {
		if mask&(1<<i) != 0 {
			rows *= g.rels[i].est.rows
		}
	}
	var sels []float64
	for i := range g.conjs {
		if g.conjs[i].mask&^mask == 0 {
			sels = append(sels, g.conjs[i].sel)
		}
	}
	rows = finite(rows * combineConj(sels))
	g.rowsMemo[mask] = rows
	return rows
}

// spanningConjs lists the conjuncts that become applicable exactly when the
// two disjoint subsets are joined: covered by the union, internal to
// neither side.
func (g *joinGraph) spanningConjs(s1, s2 uint64) []int {
	var out []int
	for i := range g.conjs {
		m := g.conjs[i].mask
		if m&^(s1|s2) == 0 && m&s1 != 0 && m&s2 != 0 {
			out = append(out, i)
		}
	}
	return out
}

// connected reports whether at least one conjunct spans the two subsets.
func (g *joinGraph) connected(s1, s2 uint64) bool {
	for i := range g.conjs {
		m := g.conjs[i].mask
		if m&^(s1|s2) == 0 && m&s1 != 0 && m&s2 != 0 {
			return true
		}
	}
	return false
}

// tryReorder routes a multi-relation inner-join chain through the two-phase
// pipeline: decompose to a join graph, enumerate orders, build the chosen
// one through the existing physical operator selection. ok == false means
// the shape is not eligible (or the graph degenerate) and the caller should
// compile in rewriter order.
func (p *planner) tryReorder(j *adl.Join) (exec.Operator, nodeEst, bool) {
	if p.cfg.NoReorder || !adl.Reorderable(j) {
		return nil, nodeEst{}, false
	}
	// A graph needs at least three relations: one operand must itself be a
	// flattenable join.
	if !isReorderableJoin(j.L) && !isReorderableJoin(j.R) {
		return nil, nodeEst{}, false
	}
	g, built := p.buildJoinGraph(j)
	if !built {
		return nil, nodeEst{}, false
	}
	entry := p.enumerateJoinOrder(g)
	if entry == nil {
		return nil, nodeEst{}, false
	}
	op, est := p.buildJoinOrder(g, entry)
	return op, est, true
}

// freshJoinVar mints a deterministic intermediate-result variable for
// recomposed join nodes, fresh with respect to the original expression.
func (p *planner) freshJoinVar(g *joinGraph) string {
	v := adl.Fresh(fmt.Sprintf("q%d", p.joinVarSeq), g.root)
	p.joinVarSeq++
	return v
}
