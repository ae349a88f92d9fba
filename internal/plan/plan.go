// Package plan lowers logical ADL expressions to physical operator trees.
// The planner realizes the paper's motivation: once the rewriter has
// produced join operators, "the optimizer may choose from a number of
// different join processing strategies" (§5.1). It plans in one phase and
// keeps the join order the rewriter emitted: OOSQL's select-from-where binds
// one extent, so the §4 rules produce semi-, anti- and nestjoins (⋉, ▷, ⊣)
// on one left operand, not chains of inner joins to reorder. Each join is
// handed to cost-based physical selection over collected statistics
// (storage.Analyze → Config.Statistics), or over default statistics when
// none are given: every applicable physical join operator is priced by the
// model in cost.go — including build/probe side swapping for inner
// equi-joins — and the cheapest wins. The cost model is the only way the
// planner chooses an operator.
package plan

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"

	"repro/internal/adl"
	"repro/internal/eval"
	"repro/internal/exec"
	"repro/internal/value"
)

// Config parameterizes compilation. The zero Config plans on the default
// statistics; set Statistics (collected by storage.Store.Analyze) to
// price the plan on the data.
type Config struct {
	// Statistics feeds the cost model: every applicable strategy is priced
	// and the cheapest chosen, and every plan node carries its
	// cardinality/cost estimate (see Plan.Explain). nil prices every extent at
	// defaultRows rows with no distinct counts, histograms or indexes.
	Statistics Statistics
	// Stats is ignored.
	//
	// Deprecated: it fed the size-threshold planner, which is gone — the
	// cost model decides. It remains only because benchmark/trace.go, which
	// the engine may not edit, still sets it. Remove it with the next change
	// to benchmark/.
	Stats any
	// Parallelism is ignored.
	//
	// Deprecated: it was the worker count of the parallel hash join and
	// ColumnScan, which are gone — every plan runs on the goroutine that
	// opens it. It remains only because benchmark/trace.go, which the engine
	// may not edit, still sets it. Remove it with the next change to
	// benchmark/.
	Parallelism int
	// NoIndexes disables index-aware planning — IndexScan leaves and the
	// index-nested-loop join — even when the statistics report secondary
	// indexes. It exists for A/B comparisons (experiments.B11) and
	// differential tests.
	NoIndexes bool
	// Vectorized is ignored.
	//
	// Deprecated: it switched σ over an extent onto the batch pipeline; the
	// cost model now prices a ColumnScan beside IndexScan and picks it where
	// it is cheaper. It remains only because benchmark/, which the engine
	// may not edit, still sets it. Remove it with the next change to
	// benchmark/.
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

	// cfg is the configuration the plan was built under, args the values of
	// its parameters, and reads its signature: the histogram estimates that
	// read a parameter.
	cfg   Config
	args  []value.Value
	reads []histRead
}

// Args returns the values of the plan's parameters (adl.Param), which a run
// takes as exec.Ctx.Args; nil when the plan was planned with its literals.
func (p *Plan) Args() []value.Value { return p.args }

// Rebind returns the plan c.PlanWith builds for this plan's template with the
// arguments args, if it is this plan, and nil otherwise. It is when c plans as
// the configuration of this plan did and every estimate of its signature,
// replayed with args, is bit-equal to what it was: those estimates are the
// planner's only reads of a parameter, so the planner would make every choice
// as it did. The plan returned shares this one's tree and estimates, runs
// with args, and keeps feedback of its own.
func (p *Plan) Rebind(c Config, args []value.Value) *Plan {
	if !p.Under(c) || len(args) != len(p.args) {
		return nil
	}
	for _, r := range p.reads {
		if f, ok := r.fraction(args); !ok || math.Float64bits(f) != math.Float64bits(r.result) {
			return nil
		}
	}
	return &Plan{Root: p.Root, est: p.est, cfg: p.cfg, args: args, reads: p.reads}
}

// Under reports whether p was planned under a configuration that plans as c
// does.
func (p *Plan) Under(c Config) bool { return c.plansAs(p.cfg) }

// plansAs reports whether c reads as the same configuration to the planner as
// d: the planner ignores Stats, Parallelism and Vectorized.
// Statistics compare with ==, a pointer by identity; a configuration whose
// Statistics == cannot compare matches none.
func (c Config) plansAs(d Config) bool {
	if c.Statistics != nil && !reflect.TypeOf(c.Statistics).Comparable() {
		return false
	}
	c.Stats, c.Parallelism, c.Vectorized = nil, 0, false
	d.Stats, d.Parallelism, d.Vectorized = nil, 0, false
	return c == d
}

// Estimate returns the optimizer's annotation for a node of this plan.
func (p *Plan) Estimate(op exec.Operator) (Estimate, bool) {
	e, ok := p.est[op]
	return e, ok
}

// Explain renders the plan tree with its cost annotations, and observed
// per-execution row counts once instrumented executions have run. A
// parameter is rendered as its argument.
func (p *Plan) Explain() string { return explainTree(p.Root, p.args, p.est, p.Actual) }

// Compile builds a physical operator tree with the default configuration.
func Compile(e adl.Expr) exec.Operator { return Config{}.Compile(e) }

// Compile builds a physical operator tree for a (set-valued) ADL expression.
func (c Config) Compile(e adl.Expr) exec.Operator { return c.Plan(e).Root }

// Plan compiles a (set-valued) ADL expression into an annotated plan.
func (c Config) Plan(e adl.Expr) *Plan { return c.PlanWith(e, nil) }

// PlanWith plans a template: e, whose parameters (adl.Param) take the values
// args. The parameters stay in the plan, whose runs take args as
// exec.Ctx.Args; every estimate reads a parameter as the literal it stands
// for, so the plan is the one e with its literals bound in would get, and the
// histogram estimates that read one are kept as the plan's signature
// (Rebind).
func (c Config) PlanWith(e adl.Expr, args []value.Value) *Plan {
	pl := &Plan{cfg: c, args: args}
	if c.Statistics == nil {
		c.Statistics = defaultStatistics{}
	}
	p := &planner{cfg: c, card: newEstimator(c, args, &pl.reads),
		est: map[exec.Operator]Estimate{}}
	pl.Root, _ = p.compile(e)
	pl.est = p.est
	return pl
}

// Run compiles and executes a set-valued expression.
func Run(e adl.Expr, db eval.DB) (*value.Set, error) {
	op := Compile(e)
	return exec.Collect(op, &exec.Ctx{DB: db})
}

// planner carries one compilation's state: the configuration, the shared
// cardinality estimator (estimator.go) and the estimates accumulated for the
// annotated plan.
type planner struct {
	cfg  Config
	card estimator
	est  map[exec.Operator]Estimate
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
		op := &exec.Filter{Child: child, Var: n.Var, Pred: exec.NewScalar(n.Pred, n.Var)}
		out := ce.rows * p.card.selectivity(n.Pred, n.Var, ce.extent)
		est := nodeEst{rows: out, extent: ce.extent, cost: ce.cost + ce.rows*cEval + out*cRow}
		p.record(op, est)
		return op, est

	case *adl.Map:
		child, ce := p.compile(n.Src)
		// The body may reshape rows, so the origin extent is dropped.
		est := nodeEst{rows: ce.rows, cost: ce.cost + ce.rows*cEval + ce.rows*cRow}
		if fuseSelect(child, n) { // α's estimate, the join's note
			est.note = ce.note
			p.record(child, est)
			return child, est
		}
		if scan := fuseOut(child, n); scan != nil { // α's estimate
			delete(p.est, child)
			p.record(scan, est)
			return scan, est
		}
		op := &exec.MapOp{Child: child, Var: n.Var, Body: exec.NewScalar(n.Body, n.Var)}
		p.record(op, est)
		return op, est

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

	case *adl.Let:
		child, ce := p.compile(n.Body)
		op := &exec.LetOp{Var: n.Var, Val: n.Val, Child: child}
		p.record(op, ce)
		return op, ce

	case *adl.Join:
		return p.compileJoin(n)
	}
	// Fallback: evaluate the fragment with the reference interpreter, priced
	// as one expression evaluation per row of an extent of unknown size.
	op := &exec.ExprScan{Expr: e}
	est := nodeEst{rows: defaultRows, cost: defaultRows * cEval}
	p.record(op, est)
	return op, est
}

// fuseSelect compiles α[v: body] over op, a nestjoin just built, into its
// select row (Sel), if body reads v only as v.a and neither binds v nor binds
// or reads as, the group attribute: with v.as read as the group, a variable
// named as, body computes from the left row and the group α's value.
func fuseSelect(op exec.Operator, m *adl.Map) bool {
	var kind adl.JoinKind
	var as string
	var sel **exec.Scalar
	switch j := op.(type) {
	case *exec.HashJoin:
		kind, as, sel = j.Kind, j.As, &j.Sel
	case *exec.NLJoin:
		kind, as, sel = j.Kind, j.As, &j.Sel
	case *exec.IndexNLJoin:
		kind, as, sel = j.Kind, j.As, &j.Sel
	}
	v := m.Var
	isV := func(x adl.Expr) bool { y, ok := x.(*adl.Var); return ok && y.Name == v }
	field := func(x adl.Expr) bool { f, ok := x.(*adl.Field); return ok && isV(f.X) }
	if kind != adl.NestJ || v == as || adl.HasFree(m.Body, as) || adl.BindsVar(m.Body, v) ||
		adl.BindsVar(m.Body, as) || adl.CountNodes(m.Body, isV) != adl.CountNodes(m.Body, field) {
		return false
	}
	body := adl.Transform(m.Body, func(x adl.Expr) adl.Expr {
		if field(x) && x.(*adl.Field).Name == as {
			return adl.V(as)
		}
		return x
	})
	s := exec.NewScalar(body, v, as)
	*sel = &s
	return true
}

// fuseOut compiles α[v: v.a] over op, a ColumnScan or a Scan of an extent
// just built, into a ColumnScan that emits attribute a (Out): the scan hands
// up the column's stored values and hashes instead of its rows. A Scan
// becomes a ColumnScan without kernels. The access path is already chosen,
// so nothing is priced again.
func fuseOut(op exec.Operator, m *adl.Map) *exec.ColumnScan {
	a := fieldAttr(m.Body, m.Var)
	switch o := op.(type) {
	case *exec.ColumnScan:
		if a != "" && o.Out == "" {
			if o.Out = a; !slices.Contains(o.Attrs, a) {
				o.Attrs = append(o.Attrs, a)
			}
			return o
		}
	case *exec.Scan:
		if a != "" {
			return &exec.ColumnScan{Extent: o.Table, Attrs: []string{a}, Var: m.Var, Out: a}
		}
	}
	return nil
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

	cs := adl.Conjuncts(j.On)
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
		var op exec.Operator = &exec.HashJoin{Kind: j.Kind, L: l, R: r, LVar: j.LVar, RVar: j.RVar,
			RKey: exec.NewScalar(rkeyExpr, j.RVar), As: j.As, RFun: rfun, In: attr}
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
	// hash is the hash join, build side swapped or not.
	hash := func(swapped bool) candidate {
		build, probe, note := re.rows, le.rows, ""
		if swapped {
			build, probe, note = le.rows, re.rows, "build side swapped"
		}
		return candidate{own: costHash(build, probe, out, residMatches), child: bothChildren, note: note, build: func() exec.Operator {
			if swapped {
				return &exec.HashJoin{Kind: j.Kind, L: r, R: l, LVar: j.RVar, RVar: j.LVar,
					LKey: keyScalar(rkeys, j.RVar), RKey: keyScalar(lkeys, j.LVar),
					Residual: resSwapped, As: j.As}
			}
			return &exec.HashJoin{Kind: j.Kind, L: l, R: r, LVar: j.LVar, RVar: j.RVar,
				LKey: keyScalar(lkeys, j.LVar), RKey: keyScalar(rkeys, j.RVar),
				Residual: res, As: j.As, RFun: rfun}
		}}
	}
	cands := []candidate{
		hash(false),
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
	// A residual-free semi- or antijoin on one key over μ has a twin of the
	// hash candidate that expands μ inside its probe and builds only the rows
	// it emits: it pays μ's child, not μ.
	if u, ok := l.(*exec.UnnestOp); ok && (j.Kind == adl.Semi || j.Kind == adl.Anti) &&
		len(lkeys) == 1 && len(residual) == 0 {
		c := cands[0]
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
	if swappable {
		cands = append(cands, hash(true))
	}

	// Index-nested-loop candidates: probe the inner extent's secondary index
	// per outer row instead of scanning and hashing the whole inner side.
	// The outer join needs the inner schema for null padding, which a probe
	// cannot supply, so it stays with the scan-based family.
	type side struct {
		op   exec.Operator
		est  nodeEst
		v    string
		keys []adl.Expr
	}
	// indexNL probes inner's index once per outer row. Swapped, the outer
	// side is the right operand: a swappable join has no As or RFun.
	indexNL := func(outer, inner side, note string) {
		attr, okey, residExprs, ok := p.indexNLCandidate(inner.op, inner.est.extent, inner.v, inner.keys, outer.keys, residual)
		if !ok {
			return
		}
		ndv := float64(p.cfg.Statistics.DistinctValues(inner.est.extent, attr))
		m := finite(le.rows * re.rows / clamp(ndv, 1, 1e18))
		residM := 0.0
		var resid *exec.Scalar
		if len(residExprs) > 0 {
			s := exec.NewScalar(adl.AndE(residExprs...), outer.v, inner.v)
			resid, residM = &s, m
		}
		cands = append(cands, candidate{
			build: func() exec.Operator {
				return &exec.IndexNLJoin{Kind: j.Kind, L: outer.op,
					Table: inner.est.extent, Attr: attr,
					LVar: outer.v, RVar: inner.v,
					LKey: exec.NewScalar(okey, outer.v), Residual: resid,
					As: j.As, RFun: rfun}
			},
			own:   costIndexNL(outer.est.rows, m, residM, out),
			child: outer.est.cost,
			note:  "index probe into " + inner.est.extent + "." + attr + note,
		})
	}
	left, right := side{l, le, j.LVar, lkeys}, side{r, re, j.RVar, rkeys}
	if j.Kind != adl.Outer {
		indexNL(left, right, "")
	}
	if swappable {
		indexNL(right, left, ", outer side swapped")
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

// Explain renders a physical plan tree without annotations, each parameter
// (adl.Param) as its argument in args.
func Explain(op exec.Operator, args ...value.Value) string { return explainTree(op, args, nil, nil) }

func explainTree(op exec.Operator, args []value.Value, est map[exec.Operator]Estimate, act func(exec.Operator) (int64, bool)) string {
	var b strings.Builder
	explain(&b, op, 0, args, est, act)
	return b.String()
}

func explain(b *strings.Builder, op exec.Operator, depth int, args []value.Value, est map[exec.Operator]Estimate, act func(exec.Operator) (int64, bool)) {
	line, children := describe(op, args)
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
	fmt.Fprintf(b, "%s%s\n", strings.Repeat("  ", depth), line)
	for _, c := range children {
		explain(b, c, depth+1, args, est, act)
	}
}

// describe renders one node's line (sans indentation), each parameter as its
// argument in args, and lists its children.
func describe(op exec.Operator, args []value.Value) (string, []exec.Operator) {
	x := func(e adl.Expr) adl.Expr { return adl.Bind(e, args) }
	switch o := op.(type) {
	case *exec.Scan:
		return fmt.Sprintf("Scan(%s)", o.Table), nil
	case *exec.IndexScan:
		if o.Eq != nil {
			return fmt.Sprintf("IndexScan(%s.%s = %s)  -- index access path",
				o.Table, o.Attr, x(o.Eq.Expr)), nil
		}
		lo, hi := "-∞", "+∞"
		lob, hib := "(", ")"
		if o.Lo != nil {
			lo = fmt.Sprint(x(o.Lo.Expr))
			if o.LoIncl {
				lob = "["
			}
		}
		if o.Hi != nil {
			hi = fmt.Sprint(x(o.Hi.Expr))
			if o.HiIncl {
				hib = "]"
			}
		}
		return fmt.Sprintf("IndexScan(%s.%s in %s%s, %s%s)  -- ordered index range",
			o.Table, o.Attr, lob, lo, hi, hib), nil
	case *exec.IndexNLJoin:
		return fmt.Sprintf("IndexNLJoin[%v on %s -> %s.%s%s%s]  -- index nested loop",
			o.Kind, x(o.LKey.Expr), o.Table, o.Attr, scalarNote("if", o.Residual, args), scalarNote("⇒", o.Sel, args)), []exec.Operator{o.L}
	case *exec.ColumnScan:
		cols := "∅"
		if len(o.Attrs) > 0 {
			cols = strings.Join(o.Attrs, ", ")
		}
		line, typed := fmt.Sprintf("ColumnScan(%s | cols %s", o.Extent, cols), 0
		if len(o.Kernels) > 0 {
			parts := make([]string, len(o.Kernels))
			for i, k := range o.Kernels {
				parts[i] = fmt.Sprint(x(k.Pred.Expr))
				if k.Attr != "" {
					typed++
				}
			}
			line = fmt.Sprintf("ColumnScan(%s | %s: %s | cols %s", o.Extent, o.Var, strings.Join(parts, " ∧ "), cols)
		}
		if o.Out != "" {
			line += " | out " + o.Out
		}
		if len(o.Kernels) > 0 {
			line += fmt.Sprintf(" | %d/%d typed kernels", typed, len(o.Kernels))
		}
		return line + ")  -- columnar projection", nil
	case *exec.ExprScan:
		return fmt.Sprintf("ExprScan(%s)  -- interpreter fallback", x(o.Expr)), nil
	case *exec.Filter:
		return fmt.Sprintf("Filter[%s: %s]", o.Var, x(o.Pred.Expr)), []exec.Operator{o.Child}
	case *exec.MapOp:
		return fmt.Sprintf("Map[%s: %s]", o.Var, x(o.Body.Expr)), []exec.Operator{o.Child}
	case *exec.ProjectOp:
		return fmt.Sprintf("Project[%s]", strings.Join(o.Attrs, ", ")), []exec.Operator{o.Child}
	case *exec.UnnestOp:
		return fmt.Sprintf("Unnest[%s]", o.Attr), []exec.Operator{o.Child}
	case *exec.NestOp:
		return fmt.Sprintf("Nest[{%s} -> %s]", strings.Join(o.Attrs, ", "), o.As), []exec.Operator{o.Child}
	case *exec.FlattenOp:
		return "Flatten", []exec.Operator{o.Child}
	case *exec.Assembly:
		return fmt.Sprintf("Assembly[%s -> %s]  -- pointer-based materialize", o.Attr, o.As), []exec.Operator{o.Child}
	case *exec.LetOp:
		return fmt.Sprintf("Let[%s = %s]  -- constant, evaluated once", o.Var, x(o.Val)), []exec.Operator{o.Child}
	case *exec.HashJoin:
		on := fmt.Sprintf("%s ∈ .%s", x(o.RKey.Expr), o.In)
		if o.In == "" {
			on = fmt.Sprintf("%s = %s", x(o.LKey.Expr), x(o.RKey.Expr))
		}
		if on = fmt.Sprintf("%v on %s%s%s", o.Kind, on, scalarNote("if", o.Residual, args), scalarNote("⇒", o.Sel, args)); o.Unnest != "" {
			on += " | μ " + o.Unnest
		}
		return fmt.Sprintf("HashJoin[%s]", on), []exec.Operator{o.L, o.R}
	case *exec.NLJoin:
		return fmt.Sprintf("NLJoin[%v on %s%s]", o.Kind, x(o.Pred.Expr), scalarNote("⇒", o.Sel, args)), []exec.Operator{o.L, o.R}
	case *exec.PNHL:
		return fmt.Sprintf("PNHL[.%s with budget %d rows]", o.Attr, o.BudgetRows), []exec.Operator{o.L, o.R}
	}
	return fmt.Sprintf("%T", op), nil
}

// scalarNote renders an optional scalar of a join line after its sign: a
// residual predicate ("if") or a nestjoin's fused select row ("⇒").
func scalarNote(sign string, s *exec.Scalar, args []value.Value) string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf(" %s %s", sign, adl.Bind(s.Expr, args))
}
