// The cardinality estimator: every selectivity, distinct-count and set-size
// estimate the planner makes goes through the one estimator type in this
// file, so the physical operator selection (plan.go, cost.go) and the index
// access-path pricing (access.go) can never disagree about what a predicate
// keeps.
//
// The estimator is histogram-first with graceful degradation: an equality
// over a collected attribute prices by equi-depth bucket density (exact for
// heavy hitters), one- and two-sided ranges by bucket interpolation, and
// join-key overlap by histogram intersection. When no histogram exists —
// the attribute was not collected, the extent is unknown, or the plan has
// no Config.Statistics — each estimate falls back to the pre-histogram
// model: the 1/NDV equality rule, defaultSelectivity for ranges, and the
// min-NDV containment rule for join keys; without a distinct count, to the
// default guesses.
package plan

import (
	"math"
	"sort"

	"repro/internal/adl"
	"repro/internal/stats"
	"repro/internal/value"
)

// estimator answers the planner's cardinality questions from the plan's
// statistics: collected ones, or the default statistics, under which every
// question gets its default guess. A parameter (adl.Param) of the plan is
// read as the literal args holds for it, and every histogram estimate that
// read one is appended to reads: the plan's signature (Plan.Rebind).
type estimator struct {
	stats Statistics
	args  []value.Value
	reads *[]histRead
}

func newEstimator(cfg Config, args []value.Value, reads *[]histRead) estimator {
	return estimator{stats: cfg.Statistics, args: args, reads: reads}
}

// histRead is one histogram estimate over literal operands: the fraction of
// rows equal to lo (op Eq), on one side of lo (Lt, Le, Gt, Ge), or, if rng,
// between lo and hi (a nil bound is an open end). These are the only places
// the planner reads the value of a literal. result is the estimate's value
// when the plan was built.
type histRead struct {
	h              *stats.Histogram
	op             adl.CmpOp
	rng            bool
	lo, hi         adl.Expr
	loIncl, hiIncl bool
	result         float64
}

// fraction computes r with args as the parameters' values; false when an
// operand is no literal.
func (r histRead) fraction(args []value.Value) (float64, bool) {
	lo, loOK := literal(r.lo, args)
	hi, hiOK := literal(r.hi, args)
	switch {
	case !loOK || !hiOK:
		return 0, false
	case r.rng:
		return r.h.RangeFraction(lo, hi, r.loIncl, r.hiIncl), true
	case lo == nil:
		return 0, false
	}
	switch r.op {
	case adl.Eq:
		return r.h.EqFraction(lo), true
	case adl.Lt:
		return r.h.LessFraction(lo, false), true
	case adl.Le:
		return r.h.LessFraction(lo, true), true
	case adl.Gt:
		return clamp(1-r.h.LessFraction(lo, true), 0, 1), true
	case adl.Ge:
		return clamp(1-r.h.LessFraction(lo, false), 0, 1), true
	}
	return 0, false
}

// read computes r and, when an operand is a parameter, records it.
func (e estimator) read(r histRead) (float64, bool) {
	f, ok := r.fraction(e.args)
	_, loParam := r.lo.(*adl.Param)
	_, hiParam := r.hi.(*adl.Param)
	if ok && (loParam || hiParam) {
		r.result = f
		*e.reads = append(*e.reads, r)
	}
	return f, ok
}

// hist resolves the histogram for extent.attr, nil when unavailable.
func (e estimator) hist(extent, attr string) *stats.Histogram {
	if extent == "" || attr == "" {
		return nil
	}
	return e.stats.Histogram(extent, attr)
}

// combineConj combines per-conjunct selectivities into a conjunction
// estimate by exponential backoff: sorted ascending, the result is
// s0 · s1^(1/2) · s2^(1/4) · …. Full independence (the plain product)
// over-shrinks badly when conjuncts are correlated — which predicates over
// the same row usually are — and the old ×3 damping factor could estimate a
// conjunction *above* its weakest conjunct. Backoff is bounded both ways:
// the estimate never exceeds the most selective conjunct (every further
// factor is ≤ 1) and never collapses as fast as the product.
func combineConj(sels []float64) float64 {
	if len(sels) == 0 {
		return 1
	}
	sorted := append([]float64(nil), sels...)
	sort.Float64s(sorted)
	total, exp := 1.0, 1.0
	for _, s := range sorted {
		total *= math.Pow(clamp(finite(s), 0, 1), exp)
		exp /= 2
	}
	return clamp(finite(total), 0, 1)
}

// orientCmp normalizes a comparison to attribute-op-other form relative to
// the iteration variable v: x.a < c and c > x.a both yield ("a", c, Lt).
// A comparison not anchored to v's attribute yields attr == "".
func orientCmp(cmp *adl.Cmp, v string) (attr string, other adl.Expr, op adl.CmpOp) {
	attr, other, op = attrOf(cmp.L, v), cmp.R, cmp.Op
	if attr == "" {
		attr, other, op = attrOf(cmp.R, v), cmp.L, mirrorCmp(cmp.Op)
	}
	return attr, other, op
}

// literal resolves an optional bound expression to its literal value: a nil
// bound is an open end (ok with a nil value), a parameter is its argument, and
// any other bound reports not-ok — the histogram cannot be consulted for a
// value only known at run time.
func literal(e adl.Expr, args []value.Value) (value.Value, bool) {
	switch n := e.(type) {
	case nil:
		return nil, true
	case *adl.Const:
		return n.Val, n.Val != nil
	case *adl.Param:
		if n.Slot < len(args) {
			return args[n.Slot], true
		}
	}
	return nil, false
}

// eqSelectivity estimates the fraction of extent rows whose attr equals the
// expression other: histogram bucket density when other is a literal, the
// 1/NDV uniform rule otherwise.
func (e estimator) eqSelectivity(extent, attr string, other adl.Expr) float64 {
	if h := e.hist(extent, attr); h != nil {
		if f, ok := e.read(histRead{h: h, op: adl.Eq, lo: other}); ok {
			return f
		}
	}
	if extent != "" {
		if d := e.stats.DistinctValues(extent, attr); d > 0 {
			return clamp(1/float64(d), 0, 1)
		}
	}
	return defaultSelectivity
}

// cmpSelectivity estimates a one-sided range attr-op-other over the extent:
// histogram interpolation when other is a literal, the default guess
// otherwise. op must be one of Lt/Le/Gt/Ge.
func (e estimator) cmpSelectivity(op adl.CmpOp, extent, attr string, other adl.Expr) float64 {
	if h := e.hist(extent, attr); h != nil {
		if f, ok := e.read(histRead{h: h, op: op, lo: other}); ok {
			return f
		}
	}
	return defaultSelectivity
}

// boundsSelectivity estimates a (possibly one-sided) range lo..hi over
// extent.attr — the shape the index access path probes. With a histogram
// and literal bounds the fraction is interpolated directly; without, each
// present bound contributes one defaultSelectivity factor, combined — so a
// two-sided merged range prices below the flat unknown-predicate guess
// instead of identically to it.
func (e estimator) boundsSelectivity(extent, attr string, lo, hi adl.Expr, loIncl, hiIncl bool) float64 {
	if h := e.hist(extent, attr); h != nil {
		if f, ok := e.read(histRead{h: h, rng: true, lo: lo, hi: hi, loIncl: loIncl, hiIncl: hiIncl}); ok {
			return f
		}
	}
	var sels []float64
	if lo != nil {
		sels = append(sels, defaultSelectivity)
	}
	if hi != nil {
		sels = append(sels, defaultSelectivity)
	}
	return combineConj(sels)
}

// conjunctSelectivity estimates one σ conjunct over the iteration variable v
// whose rows come from extent.
func (e estimator) conjunctSelectivity(c adl.Expr, v, extent string) float64 {
	cmp, ok := c.(*adl.Cmp)
	if !ok {
		return defaultSelectivity
	}
	attr, other, op := orientCmp(cmp, v)
	if attr == "" {
		return defaultSelectivity
	}
	switch op {
	case adl.Eq:
		return e.eqSelectivity(extent, attr, other)
	case adl.Lt, adl.Le, adl.Gt, adl.Ge:
		return e.cmpSelectivity(op, extent, attr, other)
	}
	return defaultSelectivity
}

// selectivity estimates what fraction of rows a σ predicate keeps, where v
// is the σ's iteration variable and extent the base table its rows come
// from ("" when unknown). The predicate is split into conjuncts, each
// priced by the histogram/NDV rules above; complementary one-sided bounds
// over the same attribute (lo ≤ x.a ∧ x.a < hi) merge into a single
// interpolated range first, and the per-conjunct estimates are combined
// with combineConj. The attribute rules are bound to the iteration variable
// through attrOf: a field read off any other variable (x.a = y.b with y
// free) must not look up the source extent's statistics for the foreign
// attribute — when attribute names collide across extents that silently
// used the wrong extent's NDV.
func (e estimator) selectivity(pred adl.Expr, v, extent string) float64 {
	type bounds struct {
		lo, hi         adl.Expr
		loIncl, hiIncl bool
	}
	ranges := map[string]*bounds{}
	var sels []float64
	for _, c := range adl.Conjuncts(pred) {
		cmp, ok := c.(*adl.Cmp)
		if !ok {
			sels = append(sels, defaultSelectivity)
			continue
		}
		attr, other, op := orientCmp(cmp, v)
		switch {
		case attr == "":
			sels = append(sels, defaultSelectivity)
		case op == adl.Eq:
			sels = append(sels, e.eqSelectivity(extent, attr, other))
		case op == adl.Lt || op == adl.Le:
			if r := rangeSlot(ranges, attr); r.hi == nil {
				r.hi, r.hiIncl = other, op == adl.Le
			} else {
				sels = append(sels, e.cmpSelectivity(op, extent, attr, other))
			}
		case op == adl.Gt || op == adl.Ge:
			if r := rangeSlot(ranges, attr); r.lo == nil {
				r.lo, r.loIncl = other, op == adl.Ge
			} else {
				sels = append(sels, e.cmpSelectivity(op, extent, attr, other))
			}
		default:
			sels = append(sels, defaultSelectivity)
		}
	}
	for attr, r := range ranges {
		sels = append(sels, e.boundsSelectivity(extent, attr, r.lo, r.hi, r.loIncl, r.hiIncl))
	}
	return combineConj(sels)
}

// rangeSlot fetches (or creates) the per-attribute bound accumulator the
// selectivity estimator merges complementary comparisons into.
func rangeSlot[T any](m map[string]*T, attr string) *T {
	if r, ok := m[attr]; ok {
		return r
	}
	r := new(T)
	m[attr] = r
	return r
}

// keyNDV estimates the number of distinct join-key values on one side. For a
// single collected attribute it is exact; composite keys multiply, capped at
// the row count; unknown keys fall back to rows/10 (a mild "some
// duplication" guess).
func (e estimator) keyNDV(n nodeEst, keys []adl.Expr, v string) float64 {
	ndv := 1.0
	for _, k := range keys {
		d := 0
		if attr := attrOf(k, v); attr != "" && n.extent != "" {
			d = e.stats.DistinctValues(n.extent, attr)
		}
		if d <= 0 {
			ndv = n.rows / 10
			break
		}
		ndv *= float64(d)
	}
	return clamp(finite(ndv), 1, math.Max(1, finite(n.rows)))
}

// joinEqSelectivity estimates the selectivity of one equality edge between
// two relations: histogram intersection when both key attributes carry
// histograms, the containment rule 1/max(NDV) otherwise. Histogram
// intersection is what min-NDV cannot be: sensitive to *which* values each
// side holds — disjoint key domains estimate near zero, a hot foreign key
// concentrates matches where the rows actually are.
func (e estimator) joinEqSelectivity(le nodeEst, lkey adl.Expr, lvar string,
	re nodeEst, rkey adl.Expr, rvar string) float64 {
	la, ra := attrOf(lkey, lvar), attrOf(rkey, rvar)
	if la != "" && ra != "" {
		if sel, ok := stats.JoinSelectivity(e.hist(le.extent, la), e.hist(re.extent, ra)); ok {
			return clamp(finite(sel), 0, 1)
		}
	}
	ndvL := e.keyNDV(le, []adl.Expr{lkey}, lvar)
	ndvR := e.keyNDV(re, []adl.Expr{rkey}, rvar)
	return 1 / math.Max(1, math.Max(ndvL, ndvR))
}

// joinConjSelectivity estimates one join conjunct between operands bound to
// lvar/rvar: cross-variable equalities use the key-overlap estimate,
// single-variable comparisons price like leaf selections on their side,
// anything else the default guess.
func (e estimator) joinConjSelectivity(c adl.Expr, lvar string, le nodeEst,
	rvar string, re nodeEst) float64 {
	if cmp, ok := c.(*adl.Cmp); ok && cmp.Op == adl.Eq {
		lk, rk := cmp.L, cmp.R
		if attrOf(lk, lvar) == "" && attrOf(rk, lvar) != "" {
			lk, rk = rk, lk
		}
		if attrOf(lk, lvar) != "" && attrOf(rk, rvar) != "" {
			return e.joinEqSelectivity(le, lk, lvar, re, rk, rvar)
		}
	}
	if !adl.HasFree(c, rvar) {
		return e.conjunctSelectivity(c, lvar, le.extent)
	}
	if !adl.HasFree(c, lvar) {
		return e.conjunctSelectivity(c, rvar, re.extent)
	}
	return defaultSelectivity
}

// joinPredSelectivity estimates a whole join predicate (the no-equi-key
// nested-loop shape included — formerly a flat rows·defaultSelectivity
// cross-product guess).
func (e estimator) joinPredSelectivity(cs []adl.Expr, lvar string, le nodeEst,
	rvar string, re nodeEst) float64 {
	sels := make([]float64, len(cs))
	for i, c := range cs {
		sels[i] = e.joinConjSelectivity(c, lvar, le, rvar, re)
	}
	return combineConj(sels)
}

// avgSetSize estimates the mean cardinality of a set-valued attribute of the
// given subtree's rows.
func (e estimator) avgSetSize(n nodeEst, attr string) float64 {
	if n.extent != "" {
		if s := e.stats.AvgSetSize(n.extent, attr); s > 0 {
			return s
		}
	}
	return defaultSetSize
}
