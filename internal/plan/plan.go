// Package plan lowers logical ADL expressions to physical operator trees.
// The planner realizes the paper's motivation: once the rewriter has
// produced join operators, "the optimizer may choose from a number of
// different join processing strategies" (§5.1). The planner is a two-phase
// cost-based optimizer over collected statistics (storage.Analyze →
// Config.Statistics), or over default statistics when none are given: phase
// 1 decomposes chains of inner joins into a join-graph IR (joingraph.go) and
// phase 2 enumerates join orders over it — DPsize over connected subgraphs,
// bushy trees included, with a greedy left-deep fallback past
// Config.MaxDPRelations (enumerate.go). Each chosen edge is handed to
// cost-based physical selection: every applicable physical join operator is
// priced by the model in cost.go — including build/probe side swapping for
// inner equi-joins, and the partitioned form against the serial one — and
// the cheapest wins. The cost model is the only way the planner chooses an
// operator and the only way it chooses parallelism; without statistics it
// plans on one worker.
package plan

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/adl"
	"repro/internal/eval"
	"repro/internal/exec"
	"repro/internal/value"
)

// Config parameterizes compilation. The zero Config plans serially on the
// default statistics; set Statistics (collected by storage.Store.Analyze) to
// price the plan on the data.
type Config struct {
	// Statistics feeds the cost model: every applicable strategy is priced
	// and the cheapest chosen, and every plan node carries its
	// cardinality/cost estimate (see Plan.Explain). nil prices every extent at
	// defaultRows rows with no distinct counts, histograms or indexes, and
	// plans on one worker.
	Statistics Statistics
	// Stats is ignored.
	//
	// Deprecated: it fed the size-threshold planner, which is gone — the
	// cost model decides. It remains only because benchmark/trace.go, which
	// the engine may not edit, still sets it. Remove it with the next change
	// to benchmark/.
	Stats any
	// Parallelism is the worker count the cost model may give a parallel
	// operator; 0 means exec.Parallelism's default, GOMAXPROCS. It is
	// resolved once per plan and written into every node that has a count.
	// Without Statistics it resolves to 1.
	Parallelism int
	// MaxDPRelations caps exhaustive DPsize join-order enumeration; graphs
	// with more relations fall back to the greedy left-deep heuristic.
	// 0 means DefaultMaxDPRelations.
	MaxDPRelations int
	// NoReorder disables phase-2 join-order enumeration: multi-join queries
	// compile in the order the rewriter emitted them, with cost-based
	// physical selection still applied per node. It exists for A/B
	// comparisons (experiments.B10) and differential tests.
	NoReorder bool
	// NoIndexes disables index-aware planning — IndexScan leaves and the
	// index-nested-loop join — even when the statistics report secondary
	// indexes. It exists for A/B comparisons (experiments.B11) and
	// differential tests.
	NoIndexes bool
	// NoHistograms makes the estimator ignore collected histograms and fall
	// back to the pre-histogram model (1/NDV equality, defaultSelectivity
	// ranges, min-NDV join keys). It exists for A/B comparisons
	// (experiments.B12) and differential tests.
	NoHistograms bool
	// Vectorized is ignored.
	//
	// Deprecated: it switched σ over an extent onto the batch pipeline; the
	// cost model now prices that pipeline beside Filter and IndexScan and
	// picks it where it is cheaper. It remains only because benchmark/, which
	// the engine may not edit, still sets it. Remove it with the next change
	// to benchmark/.
	Vectorized bool
}

// Plan is a compiled physical operator tree plus the optimizer's per-node
// estimates, and — once an instrumented execution has committed — the
// observed row counts runtime feedback compares them against (feedback.go).
// A Plan is safe for concurrent execution.
type Plan struct {
	// Root is the plan itself: immutable nodes whose Open returns the state
	// of a run, so any number of goroutines may exec.Collect it at once.
	Root exec.Operator

	est map[exec.Operator]Estimate
	feedbackState
}

// Estimate returns the optimizer's annotation for a node of this plan.
func (p *Plan) Estimate(op exec.Operator) (Estimate, bool) {
	e, ok := p.est[op]
	return e, ok
}

// Explain renders the plan tree with its cost annotations, and observed
// per-execution row counts once instrumented executions have run.
func (p *Plan) Explain() string { return explainTree(p.Root, p.est, p.Actual) }

// Compile builds a physical operator tree with the default (serial)
// configuration.
func Compile(e adl.Expr) exec.Operator { return Config{}.Compile(e) }

// Compile builds a physical operator tree for a (set-valued) ADL expression.
func (c Config) Compile(e adl.Expr) exec.Operator { return c.Plan(e).Root }

// Plan compiles a (set-valued) ADL expression into an annotated plan.
func (c Config) Plan(e adl.Expr) *Plan {
	workers := exec.Parallelism(c.Parallelism)
	if c.Statistics == nil {
		c.Statistics, workers = defaultStatistics{}, 1
	}
	p := &planner{cfg: c, workers: workers, card: newEstimator(c),
		est: map[exec.Operator]Estimate{}}
	root, _ := p.compile(e)
	return &Plan{Root: root, est: p.est}
}

// Run compiles and executes a set-valued expression.
func Run(e adl.Expr, db eval.DB) (*value.Set, error) {
	op := Compile(e)
	return exec.Collect(op, &exec.Ctx{DB: db})
}

// planner carries one compilation's state: the configuration and its
// resolved worker count, the shared cardinality estimator (estimator.go), the
// estimates accumulated for the annotated plan, and the sequence for
// intermediate join variables minted during join-order recomposition.
type planner struct {
	cfg        Config
	workers    int
	card       estimator
	est        map[exec.Operator]Estimate
	joinVarSeq int
}

// record stores a node's annotation.
func (p *planner) record(op exec.Operator, e nodeEst) { p.est[op] = e.estimate() }

// rows is an extent's cardinality for pricing: its row count, or defaultRows
// when the statistics have none.
func (p *planner) rows(extent string) float64 {
	if n := p.cfg.Statistics.RowCount(extent); n >= 0 {
		return float64(n)
	}
	return defaultRows
}

// compile lowers one expression, returning the operator and its estimate.
func (p *planner) compile(e adl.Expr) (exec.Operator, nodeEst) {
	switch n := e.(type) {
	case *adl.Table:
		op := &exec.Scan{Table: n.Name}
		rows := p.rows(n.Name)
		est := nodeEst{rows: rows, extent: n.Name, cost: rows * cRow}
		p.record(op, est)
		return op, est

	case *adl.Select:
		if tbl, ok := n.Src.(*adl.Table); ok {
			return p.chooseSelect(n, tbl.Name)
		}
		child, ce := p.compile(n.Src)
		pred := exec.NewScalar(n.Pred, n.Var)
		return p.chooseScalarOp(ce, ce.rows*p.card.selectivity(n.Pred, n.Var, ce.extent), ce.extent,
			func(workers int) exec.Operator {
				return &exec.Filter{Child: child, Var: n.Var, Pred: pred, Workers: workers}
			})

	case *adl.Map:
		child, ce := p.compile(n.Src)
		body := exec.NewScalar(n.Body, n.Var)
		// The body may reshape rows, so the origin extent is dropped.
		return p.chooseScalarOp(ce, ce.rows, "", func(workers int) exec.Operator {
			return &exec.MapOp{Child: child, Var: n.Var, Body: body, Workers: workers}
		})

	case *adl.Project:
		child, ce := p.compile(n.X)
		op := &exec.ProjectOp{Child: child, Attrs: n.Attrs}
		est := ce.withOwn(ce.rows, ce.rows*cRow)
		p.record(op, est)
		return op, est

	case *adl.Unnest:
		child, ce := p.compile(n.X)
		op := &exec.UnnestOp{Child: child, Attr: n.Attr}
		rows := ce.rows * p.card.avgSetSize(ce, n.Attr)
		est := ce.withOwn(rows, ce.rows*cRow+rows*cRow)
		est.extent = ""
		p.record(op, est)
		return op, est

	case *adl.Nest:
		child, ce := p.compile(n.X)
		op := &exec.NestOp{Child: child, Attrs: n.Attrs, As: n.As}
		est := ce.withOwn(ce.rows/2, ce.rows*cHashBuild)
		est.extent = ""
		p.record(op, est)
		return op, est

	case *adl.Flatten:
		child, ce := p.compile(n.X)
		op := &exec.FlattenOp{Child: child}
		est := ce.withOwn(ce.rows*defaultSetSize, ce.rows*cRow*defaultSetSize)
		est.extent = ""
		p.record(op, est)
		return op, est

	case *adl.Materialize:
		child, ce := p.compile(n.X)
		op := &exec.Assembly{Child: child, Attr: n.Attr, As: n.As}
		est := ce.withOwn(ce.rows, ce.rows*cEval)
		p.record(op, est)
		return op, est

	case *adl.Rename:
		child, ce := p.compile(n.X)
		op := &exec.RenameOp{Child: child, From: n.From, To: n.To}
		est := ce.withOwn(ce.rows, ce.rows*cRow)
		est.extent = ""
		p.record(op, est)
		return op, est

	case *adl.Divide:
		// A quotient row stands for as many dividend rows as the divisor
		// has; the division hashes both operands once.
		l, le := p.compile(n.L)
		r, re := p.compile(n.R)
		op := &exec.DivideOp{L: l, R: r}
		rows := le.rows / math.Max(1, re.rows)
		est := nodeEst{rows: rows,
			cost: le.cost + re.cost + (le.rows+re.rows)*cHashBuild + rows*cRow}
		p.record(op, est)
		return op, est

	case *adl.Let:
		child, ce := p.compile(n.Body)
		op := &exec.LetOp{Var: n.Var, Val: n.Val, Child: child}
		p.record(op, ce)
		return op, ce

	case *adl.Join:
		// Multi-join chains go through the two-phase optimizer: decompose to
		// a join graph, enumerate orders, rebuild the cheapest. Ineligible
		// shapes keep the rewriter's order.
		if op, est, ok := p.tryReorder(n); ok {
			return op, est
		}
		return p.compileJoin(n)
	}
	// Fallback: evaluate the fragment with the reference interpreter, priced
	// as one expression evaluation per row of an extent of unknown size.
	op := &exec.ExprScan{Expr: e}
	est := nodeEst{rows: defaultRows, cost: defaultRows * cEval}
	p.record(op, est)
	return op, est
}

// chooseScalarOp prices a σ/α over its child serially versus on a
// worker pool of the configured size, builds the cheaper with mk, and records
// its estimate (outRows output rows, origin extent as given).
func (p *planner) chooseScalarOp(ce nodeEst, outRows float64, extent string,
	mk func(workers int) exec.Operator) (exec.Operator, nodeEst) {
	own, workers := ce.rows*cEval, 1
	if pool := costParallelPool(ce.rows, p.workers); p.workers > 1 && pool < own {
		own, workers = pool, p.workers
	}
	op := mk(workers)
	est := nodeEst{rows: outRows, extent: extent, cost: ce.cost + own + outRows*cRow}
	p.record(op, est)
	return op, est
}

// withOwn derives a child's estimate for a row-transforming parent: new row
// count, extent preserved, own cost added.
func (e nodeEst) withOwn(rows, own float64) nodeEst {
	return nodeEst{rows: rows, extent: e.extent, cost: e.cost + own}
}

// setProbeShape recognizes the membership-in-attribute predicate shape:
// key(y) ∈ x.attr as the sole conjunct (the paper's p[pid] ∈ s.parts), for
// the filtering/grouping kinds. It returns the attribute and the right-key
// expression.
func setProbeShape(j *adl.Join, cs []adl.Expr) (attr string, rkey adl.Expr, ok bool) {
	if len(cs) != 1 || (j.Kind != adl.Semi && j.Kind != adl.Anti && j.Kind != adl.NestJ) {
		return "", nil, false
	}
	cmp, isCmp := cs[0].(*adl.Cmp)
	if !isCmp || cmp.Op != adl.In {
		return "", nil, false
	}
	fa, isField := cmp.R.(*adl.Field)
	if !isField {
		return "", nil, false
	}
	v, isVar := fa.X.(*adl.Var)
	if !isVar || v.Name != j.LVar || adl.HasFree(cmp.L, j.LVar) {
		return "", nil, false
	}
	return fa.Name, cmp.L, true
}

// splitEquiKeys partitions the conjuncts into equi-key pairs f(x) = g(y) and
// a residual.
func splitEquiKeys(cs []adl.Expr, j *adl.Join) (lkeys, rkeys, residual []adl.Expr) {
	for _, c := range cs {
		cmp, ok := c.(*adl.Cmp)
		if !ok || cmp.Op != adl.Eq {
			residual = append(residual, c)
			continue
		}
		lSide, rSide := cmp.L, cmp.R
		if adl.HasFree(lSide, j.RVar) || adl.HasFree(rSide, j.LVar) {
			lSide, rSide = rSide, lSide
		}
		if adl.HasFree(lSide, j.RVar) || adl.HasFree(rSide, j.LVar) {
			residual = append(residual, c)
			continue
		}
		// A usable key pair references each side's variable (constant-only
		// sides are legal but belong in the residual).
		if !adl.HasFree(lSide, j.LVar) || !adl.HasFree(rSide, j.RVar) {
			residual = append(residual, c)
			continue
		}
		lkeys = append(lkeys, lSide)
		rkeys = append(rkeys, rSide)
	}
	return lkeys, rkeys, residual
}

// joinExtent is the base extent of a join's output rows: the filtering and
// grouping kinds keep left rows (attribute statistics stay valid), the
// widening kinds concatenate and lose the mapping.
func joinExtent(kind adl.JoinKind, le nodeEst) string {
	switch kind {
	case adl.Semi, adl.Anti, adl.NestJ:
		return le.extent
	}
	return ""
}

// compileJoin prices the join implementations the predicate's shape admits
// and returns the cheapest.
func (p *planner) compileJoin(j *adl.Join) (exec.Operator, nodeEst) {
	l, le := p.compile(j.L)
	r, re := p.compile(j.R)
	rfun := rfunScalar(j)

	cs := conjuncts(j.On)
	nl := func() exec.Operator {
		return &exec.NLJoin{Kind: j.Kind, L: l, R: r, LVar: j.LVar, RVar: j.RVar,
			Pred: exec.NewScalar(j.On, j.LVar, j.RVar), As: j.As, RFun: rfun}
	}

	if attr, rkeyExpr, ok := setProbeShape(j, cs); ok {
		// Price the single-segment PNHL core against the nested loop.
		avg := p.card.avgSetSize(le, attr)
		inner := finite(le.rows * re.rows / math.Max(1, math.Max(le.rows, re.rows)))
		out := joinOutRows(j.Kind, le.rows, re.rows, inner, le.rows, re.rows)
		spOwn := costPNHL(le.rows, avg, re.rows, out, 1)
		est := nodeEst{rows: out, extent: joinExtent(j.Kind, le), cost: le.cost + re.cost + spOwn}
		var op exec.Operator = &exec.SetProbeJoin{Kind: j.Kind, L: l, R: r, Attr: attr,
			RKey: exec.NewScalar(rkeyExpr, j.RVar), As: j.As, RFun: rfun}
		if nlOwn := costNL(le.rows, re.rows, out); nlOwn < spOwn {
			op, est.cost, est.note = nl(), le.cost+re.cost+nlOwn, "nested loop priced cheaper"
		}
		p.record(op, est)
		return op, est
	}

	lkeys, rkeys, residual := splitEquiKeys(cs, j)
	if len(lkeys) > 0 {
		var res *exec.Scalar
		if len(residual) > 0 {
			s := exec.NewScalar(adl.AndE(residual...), j.LVar, j.RVar)
			res = &s
		}
		return p.chooseEquiJoin(j, l, r, le, re, lkeys, rkeys, residual, res, rfun)
	}

	// No usable equi key: the estimator prices the theta predicate conjunct
	// by conjunct.
	sel := p.card.joinPredSelectivity(cs, j.LVar, le, j.RVar, re)
	out := le.rows * re.rows * sel
	if j.Kind == adl.Semi || j.Kind == adl.Anti || j.Kind == adl.NestJ {
		out = joinOutRows(j.Kind, le.rows, re.rows, out, le.rows, re.rows)
	}
	op := nl()
	est := nodeEst{rows: out, extent: joinExtent(j.Kind, le),
		cost: le.cost + re.cost + costNL(le.rows, re.rows, out)}
	p.record(op, est)
	return op, est
}

// chooseEquiJoin prices every applicable physical implementation of an
// equi-key join and returns the cheapest. Inner joins with no right-tuple
// function may swap build and probe sides: tuple equality is
// attribute-order-insensitive, so exchanging the operands (and key/variable
// roles) preserves the result set.
func (p *planner) chooseEquiJoin(j *adl.Join, l, r exec.Operator, le, re nodeEst,
	lkeys, rkeys, residual []adl.Expr, res *exec.Scalar, rfun *exec.Scalar) (exec.Operator, nodeEst) {

	ndvL := p.card.keyNDV(le, lkeys, j.LVar)
	ndvR := p.card.keyNDV(re, rkeys, j.RVar)
	// The inner-join output estimate: the containment rule for composite
	// keys, histogram intersection for a single key pair when both sides
	// carry histograms.
	eqSel := 1 / math.Max(1, math.Max(ndvL, ndvR))
	if len(lkeys) == 1 {
		eqSel = p.card.joinEqSelectivity(le, lkeys[0], j.LVar, re, rkeys[0], j.RVar)
	}
	inner := finite(le.rows * re.rows * eqSel)
	out := joinOutRows(j.Kind, le.rows, re.rows, inner, ndvL, ndvR)
	matches := inner
	residMatches := 0.0
	if len(residual) > 0 {
		residMatches = matches
	}
	swappable := j.Kind == adl.Inner && j.RFun == nil

	// A swapped residual binds the variables in exchanged positions.
	var resSwapped *exec.Scalar
	if len(residual) > 0 {
		s := exec.NewScalar(adl.AndE(residual...), j.RVar, j.LVar)
		resSwapped = &s
	}

	// child is the children's cumulative cost a candidate actually pays:
	// scan-based strategies drain both compiled operands, the index probes
	// drop the inner scan entirely — only the outer side's cost is real.
	type candidate struct {
		build func() exec.Operator
		own   float64
		child float64
		note  string
	}
	bothChildren := le.cost + re.cost
	// hash is the hash join on parts partitions, build side swapped or not.
	hash := func(swapped bool, parts int) candidate {
		build, probe, note := re.rows, le.rows, ""
		if swapped {
			build, probe, note = le.rows, re.rows, "build side swapped"
		}
		own := costHash(build, probe, out, residMatches)
		if parts > 1 {
			own = costPartitionedHash(build, probe, out, residMatches, parts)
		}
		return candidate{own: own, child: bothChildren, note: note, build: func() exec.Operator {
			if swapped {
				return &exec.HashJoin{Kind: j.Kind, L: r, R: l, LVar: j.RVar, RVar: j.LVar,
					LKey: keyScalar(rkeys, j.RVar), RKey: keyScalar(lkeys, j.LVar),
					Residual: resSwapped, As: j.As, Partitions: parts}
			}
			return &exec.HashJoin{Kind: j.Kind, L: l, R: r, LVar: j.LVar, RVar: j.RVar,
				LKey: keyScalar(lkeys, j.LVar), RKey: keyScalar(rkeys, j.RVar),
				Residual: res, As: j.As, RFun: rfun, Partitions: parts}
		}}
	}
	cands := []candidate{
		hash(false, 1),
		hash(false, p.workers),
		{
			build: func() exec.Operator {
				return &exec.NLJoin{Kind: j.Kind, L: l, R: r,
					LVar: j.LVar, RVar: j.RVar,
					Pred: exec.NewScalar(j.On, j.LVar, j.RVar),
					As:   j.As, RFun: rfun}
			},
			own: costNL(le.rows, re.rows, out), child: bothChildren,
		},
	}
	// A residual-free semi- or antijoin on one key over μ has a twin of each
	// hash candidate that expands μ inside its probe and builds only the rows
	// it emits: it pays μ's child, not μ.
	if u, ok := l.(*exec.UnnestOp); ok && (j.Kind == adl.Semi || j.Kind == adl.Anti) &&
		len(lkeys) == 1 && len(residual) == 0 {
		for _, c := range cands[:2] {
			build := c.build
			c.child = p.est[u.Child].Cost + re.cost
			c.build = func() exec.Operator {
				hj := build().(*exec.HashJoin)
				hj.L, hj.Unnest = u.Child, u.Attr
				delete(p.est, u) // μ is no node of the plan
				return hj
			}
			cands = append(cands, c)
		}
	}
	if swappable {
		cands = append(cands, hash(true, 1), hash(true, p.workers))
	}

	// Index-nested-loop candidates: probe the inner extent's secondary index
	// per outer row instead of scanning and hashing the whole inner side.
	// The outer join needs the inner schema for null padding, which a probe
	// cannot supply, so it stays with the scan-based family.
	idxMatches := func(extent, attr string) float64 {
		ndv := float64(p.cfg.Statistics.DistinctValues(extent, attr))
		return finite(le.rows * re.rows / clamp(ndv, 1, 1e18))
	}
	if j.Kind != adl.Outer {
		if attr, lkey, residExprs, ok := p.indexNLCandidate(r, re.extent, j.RVar, rkeys, lkeys, residual); ok {
			m := idxMatches(re.extent, attr)
			residM := 0.0
			var res2 *exec.Scalar
			if len(residExprs) > 0 {
				s := exec.NewScalar(adl.AndE(residExprs...), j.LVar, j.RVar)
				res2, residM = &s, m
			}
			cands = append(cands, candidate{
				build: func() exec.Operator {
					return &exec.IndexNLJoin{Kind: j.Kind, L: l,
						Table: re.extent, Attr: attr,
						LVar: j.LVar, RVar: j.RVar,
						LKey: exec.NewScalar(lkey, j.LVar), Residual: res2,
						As: j.As, RFun: rfun}
				},
				own:   costIndexNL(le.rows, m, residM, out),
				child: le.cost,
				note:  "index probe into " + re.extent + "." + attr,
			})
		}
	}
	if swappable {
		if attr, rkey, residExprs, ok := p.indexNLCandidate(l, le.extent, j.LVar, lkeys, rkeys, residual); ok {
			m := idxMatches(le.extent, attr)
			residM := 0.0
			var res2 *exec.Scalar
			if len(residExprs) > 0 {
				s := exec.NewScalar(adl.AndE(residExprs...), j.RVar, j.LVar)
				res2, residM = &s, m
			}
			cands = append(cands, candidate{
				build: func() exec.Operator {
					return &exec.IndexNLJoin{Kind: j.Kind, L: r,
						Table: le.extent, Attr: attr,
						LVar: j.RVar, RVar: j.LVar,
						LKey: exec.NewScalar(rkey, j.RVar), Residual: res2}
				},
				own:   costIndexNL(re.rows, m, residM, out),
				child: re.cost,
				note:  "index probe into " + le.extent + "." + attr + ", outer side swapped",
			})
		}
	}

	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].child+cands[i].own < cands[best].child+cands[best].own {
			best = i
		}
	}
	op := cands[best].build()
	est := nodeEst{rows: out, extent: joinExtent(j.Kind, le),
		cost: cands[best].child + cands[best].own, note: cands[best].note}
	p.record(op, est)
	return op, est
}

// rfunScalar compiles a nestjoin's right-tuple function, if it has one.
func rfunScalar(j *adl.Join) *exec.Scalar {
	if j.RFun == nil {
		return nil
	}
	s := exec.NewScalar(j.RFun, j.LVar, j.RVar)
	return &s
}

// keyScalar packs key expressions into a composite tuple key.
func keyScalar(keys []adl.Expr, v string) exec.Scalar {
	if len(keys) == 1 {
		return exec.NewScalar(keys[0], v)
	}
	t := &adl.TupleExpr{}
	for i, k := range keys {
		t.Names = append(t.Names, fmt.Sprintf("k%d", i))
		t.Elems = append(t.Elems, k)
	}
	return exec.NewScalar(t, v)
}

func conjuncts(e adl.Expr) []adl.Expr { return adl.Conjuncts(e) }

// Explain renders a physical plan tree without annotations.
func Explain(op exec.Operator) string { return explainTree(op, nil, nil) }

func explainTree(op exec.Operator, est map[exec.Operator]Estimate, act func(exec.Operator) (int64, bool)) string {
	var b strings.Builder
	explain(&b, op, 0, est, act)
	return b.String()
}

func explain(b *strings.Builder, node any, depth int, est map[exec.Operator]Estimate, act func(exec.Operator) (int64, bool)) {
	line, children := describe(node)
	if op, isOp := node.(exec.Operator); isOp {
		if e, ok := est[op]; ok {
			line += fmt.Sprintf("  (rows≈%d cost≈%d)", e.Rows, int64(e.Cost+0.5))
			if act != nil {
				if a, ok := act(op); ok {
					line += fmt.Sprintf(" (actual=%d)", a)
				}
			}
			if e.Note != "" {
				line += "  -- " + e.Note
			}
		}
	}
	fmt.Fprintf(b, "%s%s\n", strings.Repeat("  ", depth), line)
	for _, c := range children {
		explain(b, c, depth+1, est, act)
	}
}

// describe renders one node's line (sans indentation) and lists its
// children. Nodes are either scalar Operators or batch VecOps — the
// vectorized pipeline hangs under a VecAdapter bridge.
func describe(node any) (string, []any) {
	switch o := node.(type) {
	case *exec.VecAdapter:
		return "VecAdapter  -- vectorized→scalar bridge", []any{o.Src}
	case *exec.VecScan:
		batch := o.Batch
		if batch <= 0 {
			batch = exec.DefaultBatchSize
		}
		cols := "∅"
		if len(o.Attrs) > 0 {
			cols = strings.Join(o.Attrs, ", ")
		}
		return fmt.Sprintf("VecScan(%s | batch %d | cols %s)  -- columnar projection",
			o.Extent, batch, cols), nil
	case *exec.VecFilter:
		typed := 0
		parts := make([]string, len(o.Kernels))
		for i, k := range o.Kernels {
			parts[i] = fmt.Sprint(k.Pred.Expr)
			if k.Attr != "" {
				typed++
			}
		}
		return fmt.Sprintf("VecFilter[%s: %s | %d/%d typed kernels]  -- selection vector",
			o.Var, strings.Join(parts, " ∧ "), typed, len(o.Kernels)), []any{o.Src}
	case *exec.VecExchange:
		return fmt.Sprintf("VecExchange(workers %d | morsel %d)  -- parallel morsel scan",
			o.Workers, o.Morsel), []any{o.Src}
	}
	switch o := node.(type) {
	case *exec.Scan:
		return fmt.Sprintf("Scan(%s)", o.Table), nil
	case *exec.IndexScan:
		if o.Eq != nil {
			return fmt.Sprintf("IndexScan(%s.%s = %s)  -- index access path",
				o.Table, o.Attr, o.Eq.Expr), nil
		}
		lo, hi := "-∞", "+∞"
		lob, hib := "(", ")"
		if o.Lo != nil {
			lo = fmt.Sprint(o.Lo.Expr)
			if o.LoIncl {
				lob = "["
			}
		}
		if o.Hi != nil {
			hi = fmt.Sprint(o.Hi.Expr)
			if o.HiIncl {
				hib = "]"
			}
		}
		return fmt.Sprintf("IndexScan(%s.%s in %s%s, %s%s)  -- ordered index range",
			o.Table, o.Attr, lob, lo, hi, hib), nil
	case *exec.IndexNLJoin:
		return fmt.Sprintf("IndexNLJoin[%v on %s -> %s.%s%s]  -- index nested loop",
			o.Kind, o.LKey.Expr, o.Table, o.Attr, residualNote(o.Residual)), []any{o.L}
	case *exec.ExprScan:
		return fmt.Sprintf("ExprScan(%s)  -- interpreter fallback", o.Expr), nil
	case *exec.Filter:
		if o.Workers > 1 {
			return fmt.Sprintf("ParallelFilter[%s: %s | %d workers]  -- parallel",
				o.Var, o.Pred.Expr, o.Workers), []any{o.Child}
		}
		return fmt.Sprintf("Filter[%s: %s]", o.Var, o.Pred.Expr), []any{o.Child}
	case *exec.MapOp:
		if o.Workers > 1 {
			return fmt.Sprintf("ParallelMap[%s: %s | %d workers]  -- parallel",
				o.Var, o.Body.Expr, o.Workers), []any{o.Child}
		}
		return fmt.Sprintf("Map[%s: %s]", o.Var, o.Body.Expr), []any{o.Child}
	case *exec.ProjectOp:
		return fmt.Sprintf("Project[%s]", strings.Join(o.Attrs, ", ")), []any{o.Child}
	case *exec.UnnestOp:
		return fmt.Sprintf("Unnest[%s]", o.Attr), []any{o.Child}
	case *exec.NestOp:
		return fmt.Sprintf("Nest[{%s} -> %s]", strings.Join(o.Attrs, ", "), o.As), []any{o.Child}
	case *exec.FlattenOp:
		return "Flatten", []any{o.Child}
	case *exec.Assembly:
		return fmt.Sprintf("Assembly[%s -> %s]  -- pointer-based materialize", o.Attr, o.As), []any{o.Child}
	case *exec.RenameOp:
		return fmt.Sprintf("Rename[%s -> %s]", o.From, o.To), []any{o.Child}
	case *exec.DivideOp:
		return "Divide", []any{o.L, o.R}
	case *exec.LetOp:
		return fmt.Sprintf("Let[%s = %s]  -- constant, evaluated once", o.Var, o.Val), []any{o.Child}
	case *exec.HashJoin:
		on := fmt.Sprintf("%v on %s = %s%s", o.Kind, o.LKey.Expr, o.RKey.Expr, residualNote(o.Residual))
		if o.Unnest != "" {
			on += " | μ " + o.Unnest
		}
		if o.Partitions > 1 {
			return fmt.Sprintf("PartitionedHashJoin[%s | %d partitions]  -- parallel", on, o.Partitions), []any{o.L, o.R}
		}
		return fmt.Sprintf("HashJoin[%s]", on), []any{o.L, o.R}
	case *exec.SetProbeJoin:
		return fmt.Sprintf("SetProbeJoin[%v on %s ∈ .%s]", o.Kind, o.RKey.Expr, o.Attr), []any{o.L, o.R}
	case *exec.NLJoin:
		return fmt.Sprintf("NLJoin[%v on %s]", o.Kind, o.Pred.Expr), []any{o.L, o.R}
	case *exec.PNHL:
		return fmt.Sprintf("PNHL[.%s with budget %d rows]", o.Attr, o.BudgetRows), []any{o.L, o.R}
	}
	return fmt.Sprintf("%T", node), nil
}

// residualNote renders an optional residual predicate for a join line.
func residualNote(res *exec.Scalar) string {
	if res == nil {
		return ""
	}
	return fmt.Sprintf(" if %s", res.Expr)
}
