package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/adl"
	"repro/internal/bench"
	"repro/internal/eval"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/rewrite"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/value"
)

// Workload bundles one experiment's database, its naive (nested-loop) query
// and the optimized form produced by the §4 strategy.
type Workload struct {
	Name  string
	Store *storage.Store
	// Naive is the nested ADL expression as translated from OOSQL.
	Naive adl.Expr
	// Opt is the rewritten join query.
	Opt adl.Expr
	// Result of rewriting for inspection (trace, options used).
	Rewrite *rewrite.Result
}

// RunNaive executes the nested form tuple-at-a-time (reference interpreter).
func (w *Workload) RunNaive() (*value.Set, error) {
	return eval.EvalSet(w.Naive, nil, w.Store)
}

// ExecMode selects the physical execution mode for every workload's
// optimized arm: the zero value plans scalar. adlbench sets it from
// -vectorized/-batch so the whole suite can be A/B'd without a rebuild;
// B13 ignores it (its two arms ARE the A/B).
var ExecMode struct {
	Vectorized bool
	BatchSize  int
}

// RunOpt executes the optimized form through the physical planner.
func (w *Workload) RunOpt() (*value.Set, error) {
	cfg := plan.Config{Vectorized: ExecMode.Vectorized, BatchSize: ExecMode.BatchSize}
	return exec.Collect(cfg.Compile(w.Opt), &exec.Ctx{DB: w.Store})
}

// RunOptNL executes the optimized logical form with nested-loop physical
// operators only (isolates the logical rewrite from the physical win).
func (w *Workload) RunOptNL() (*value.Set, error) {
	return eval.EvalSet(w.Opt, nil, w.Store)
}

func optimize(name string, st *storage.Store, naive adl.Expr) *Workload {
	res := rewrite.Optimize(naive, rewrite.NewContext(st.Catalog()))
	return &Workload{Name: name, Store: st, Naive: naive, Opt: res.Expr, Rewrite: res}
}

// eq5Expr is Example Query 5: suppliers supplying red parts.
func eq5Expr() adl.Expr {
	return adl.Sel("s",
		adl.Ex("x", adl.Dot(adl.V("s"), "parts"),
			adl.Ex("p", adl.T("PART"),
				adl.AndE(adl.EqE(adl.V("x"), adl.SubT(adl.V("p"), "pid")),
					adl.EqE(adl.Dot(adl.V("p"), "color"), adl.CStr("red"))))),
		adl.T("SUPPLIER"))
}

// NewEQ5 builds the B1 workload (nested quantifiers vs semijoin) at a scale.
func NewEQ5(suppliers, parts int, seed int64) *Workload {
	st := bench.Generate(bench.Config{Suppliers: suppliers, Parts: parts, Seed: seed})
	return optimize(fmt.Sprintf("EQ5[%dx%d]", suppliers, parts), st, eq5Expr())
}

// eq4Expr is Example Query 4: referential integrity violations.
func eq4Expr() adl.Expr {
	return adl.MapE("s", adl.Dot(adl.V("s"), "eid"),
		adl.Sel("s",
			adl.Ex("z", adl.Dot(adl.V("s"), "parts"),
				adl.NotE(adl.Ex("p", adl.T("PART"),
					adl.EqE(adl.V("z"), adl.SubT(adl.V("p"), "pid"))))),
			adl.T("SUPPLIER")))
}

// NewEQ4 builds the B2 workload (universal/negated-existential vs
// unnest + antijoin).
func NewEQ4(suppliers, parts int, seed int64) *Workload {
	st := bench.Generate(bench.Config{Suppliers: suppliers, Parts: parts, DanglingFrac: 0.01, Seed: seed})
	return optimize(fmt.Sprintf("EQ4[%dx%d]", suppliers, parts), st, eq4Expr())
}

// eq6Expr is Example Query 6: supplier names with the parts supplied.
func eq6Expr() adl.Expr {
	return adl.MapE("s",
		adl.Tup("sname", adl.Dot(adl.V("s"), "sname"),
			"parts_suppl", adl.Sel("p",
				adl.CmpE(adl.In, adl.SubT(adl.V("p"), "pid"), adl.Dot(adl.V("s"), "parts")),
				adl.T("PART"))),
		adl.T("SUPPLIER"))
}

// NewEQ6 builds the B3 nestjoin workload (nesting in the select-clause).
func NewEQ6(suppliers, parts int, seed int64) *Workload {
	st := bench.Generate(bench.Config{Suppliers: suppliers, Parts: parts, Seed: seed})
	return optimize(fmt.Sprintf("EQ6[%dx%d]", suppliers, parts), st, eq6Expr())
}

// subsetExpr is the Figure 1/2 query shape against the supplier-part
// schema: suppliers all of whose parts are cheap — s.parts ⊆ Y′ with the
// correlated block Y′ = {⟨pid⟩ | p ∈ PART, p[pid] ∈ s.parts, p.price < 60}.
// P(x, ∅) = (s.parts ⊆ ∅) is run-time dependent, so grouping is buggy
// (suppliers with empty part sets vacuously qualify but are lost by the
// join) and the strategy must use the nestjoin.
func subsetExpr() adl.Expr {
	sub := adl.MapE("p", adl.Tup("pid", adl.Dot(adl.V("p"), "pid")),
		adl.Sel("p", adl.AndE(
			adl.CmpE(adl.In, adl.SubT(adl.V("p"), "pid"), adl.Dot(adl.V("s"), "parts")),
			adl.CmpE(adl.Lt, adl.Dot(adl.V("p"), "price"), adl.CInt(60))),
			adl.T("PART")))
	return adl.Sel("s",
		adl.CmpE(adl.SubEq, adl.Dot(adl.V("s"), "parts"), sub),
		adl.T("SUPPLIER"))
}

// NewSubset builds the B3 bug workload with a tunable fraction of suppliers
// with empty part sets (the dangling tuples grouping loses).
func NewSubset(suppliers, parts int, emptyFrac float64, seed int64) *Workload {
	st := bench.Generate(bench.Config{Suppliers: suppliers, Parts: parts, EmptyFrac: emptyFrac, Seed: seed})
	return optimize(fmt.Sprintf("subset[%dx%d,empty=%.0f%%]", suppliers, parts, emptyFrac*100), st, subsetExpr())
}

// GroupedPlan returns the [GaWo87] join+nest plan for the workload's naive
// query, forced past the Table 3 guard (the buggy plan of Figure 2).
func (w *Workload) GroupedPlan() (adl.Expr, bool) {
	// Normalize first so the with-bindings and from-compositions are gone.
	norm := rewrite.NewEngine(rewrite.NormalizeRules())
	base := norm.Run(w.Naive, rewrite.NewContext(w.Store.Catalog()))
	return rewrite.UnnestByGrouping(base, rewrite.NewContext(w.Store.Catalog()), true)
}

// OuterRepairPlan returns the [GaWo87] outer-join repair of the grouping
// plan — correct for every predicate, at the cost of the wider join.
func (w *Workload) OuterRepairPlan() (adl.Expr, bool) {
	norm := rewrite.NewEngine(rewrite.NormalizeRules())
	base := norm.Run(w.Naive, rewrite.NewContext(w.Store.Catalog()))
	return rewrite.UnnestByGroupingOuter(base, rewrite.NewContext(w.Store.Catalog()))
}

// MaterializeArms builds the B4 experiment: attach to every supplier the set
// of Part objects it references, four ways. The returned runners each
// produce the same-shaped result (supplier tuple with parts replaced by the
// set of part objects) except unnest-join-nest, which loses suppliers with
// empty part sets — its runner also reports the result cardinality so the
// loss is visible.
type MaterializeArms struct {
	Store *storage.Store
	// NaiveExpr is evaluated tuple-at-a-time.
	NaiveExpr adl.Expr
}

// NewMaterialize builds the B4 workload.
func NewMaterialize(suppliers, parts, fanout int, seed int64) *MaterializeArms {
	st := bench.Generate(bench.Config{Suppliers: suppliers, Parts: parts, Fanout: fanout, EmptyFrac: 0.05, Seed: seed})
	naive := adl.MapE("s",
		adl.Exc(adl.V("s"), "parts",
			adl.Sel("p",
				adl.CmpE(adl.In, adl.SubT(adl.V("p"), "pid"), adl.Dot(adl.V("s"), "parts")),
				adl.T("PART"))),
		adl.T("SUPPLIER"))
	return &MaterializeArms{Store: st, NaiveExpr: naive}
}

// RunNaive executes the per-tuple nested loop.
func (m *MaterializeArms) RunNaive() (*value.Set, error) {
	return eval.EvalSet(m.NaiveExpr, nil, m.Store)
}

// NestjoinOp builds the set-probe nestjoin arm's physical plan.
func (m *MaterializeArms) NestjoinOp() exec.Operator {
	join := &exec.SetProbeJoin{
		Kind: adl.NestJ,
		L:    &exec.Scan{Table: "SUPPLIER"},
		R:    &exec.Scan{Table: "PART"},
		Attr: "parts",
		RKey: exec.NewScalar(adl.SubT(adl.V("p"), "pid"), "p"),
		As:   "ys",
	}
	// Reshape (eid, sname, parts, ys) to parts := ys.
	body := adl.Exc(adl.SubT(adl.V("z"), "eid", "sname"),
		"parts", adl.Dot(adl.V("z"), "ys"))
	return &exec.MapOp{Child: join, Var: "z", Body: exec.NewScalar(body, "z")}
}

// RunNestjoin executes the set-probe nestjoin plan.
func (m *MaterializeArms) RunNestjoin() (*value.Set, error) {
	return exec.Collect(m.NestjoinOp(), &exec.Ctx{DB: m.Store})
}

// RunPNHL executes the partitioned nested-hashed-loops algorithm with the
// given build-side memory budget (rows per segment; 0 = unlimited). Under
// ExecMode.Vectorized the batch-native VecPNHL runs instead, with the same
// segmentation semantics.
func (m *MaterializeArms) RunPNHL(budgetRows int) (*value.Set, int, error) {
	member := exec.NewScalar(adl.V("y"), "e", "y")
	elemKey := exec.NewScalar(adl.Dot(adl.V("e"), "pid"), "e")
	buildKey := exec.NewScalar(adl.Dot(adl.V("y"), "pid"), "y")
	var op exec.Operator = &exec.PNHL{
		L:          &exec.Scan{Table: "SUPPLIER"},
		R:          &exec.Scan{Table: "PART"},
		Attr:       "parts",
		ElemKey:    elemKey,
		BuildKey:   buildKey,
		BudgetRows: budgetRows,
		Member:     &member,
	}
	if ExecMode.Vectorized {
		op = &exec.VecPNHL{
			L:          &exec.VecScan{Extent: "SUPPLIER", Attrs: []string{"parts"}, Batch: ExecMode.BatchSize},
			R:          &exec.Scan{Table: "PART"},
			Attr:       "parts",
			ElemKey:    elemKey,
			BuildKey:   buildKey,
			BudgetRows: budgetRows,
			Member:     &member,
		}
	}
	set, err := exec.Collect(op, &exec.Ctx{DB: m.Store})
	if err != nil {
		return nil, 0, err
	}
	build, err := m.Store.Table("PART")
	return set, exec.Segments(build.Len(), budgetRows), err
}

// RunUnnestJoinNest executes the μ → hash join → ν alternative the paper
// compares PNHL against. It returns its result cardinality: suppliers with
// empty part sets are lost by μ and never regrouped (the restructuring
// overhead plus the PNF caveat of §4).
func (m *MaterializeArms) RunUnnestJoinNest() (int, error) {
	// μ_parts(SUPPLIER): (pid, eid, sname); join part objects wrapped as
	// (pobj = p, jpid = p.pid) to avoid the pid concat conflict; nest the
	// pobj/jpid/pid attributes away.
	rshape := adl.Tup("pobj", adl.V("p"), "jpid", adl.Dot(adl.V("p"), "pid"))
	rop := &exec.MapOp{Child: &exec.Scan{Table: "PART"}, Var: "p", Body: exec.NewScalar(rshape, "p")}
	join := &exec.HashJoin{
		Kind: adl.Inner,
		L:    &exec.UnnestOp{Child: &exec.Scan{Table: "SUPPLIER"}, Attr: "parts"},
		R:    rop,
		LVar: "l", RVar: "r",
		LKey: exec.NewScalar(adl.Dot(adl.V("l"), "pid"), "l"),
		RKey: exec.NewScalar(adl.Dot(adl.V("r"), "jpid"), "r"),
	}
	nest := &exec.NestOp{Child: join, Attrs: []string{"pid", "pobj", "jpid"}, As: "parts"}
	set, err := exec.Collect(nest, &exec.Ctx{DB: m.Store})
	if err != nil {
		return 0, err
	}
	return set.Len(), nil
}

// PointerJoinArms is the B5 experiment: materialize each delivery's supplier
// object, by value-based hash join versus pointer-based assembly.
type PointerJoinArms struct {
	Store *storage.Store
}

// NewPointerJoin builds the B5 workload.
func NewPointerJoin(suppliers, deliveries int, seed int64) *PointerJoinArms {
	st := bench.Generate(bench.Config{Suppliers: suppliers, Parts: 10, Fanout: 2,
		Deliveries: deliveries, Seed: seed})
	return &PointerJoinArms{Store: st}
}

// RunHashJoin materializes via a value-based hash join on the oid.
func (p *PointerJoinArms) RunHashJoin() (*value.Set, error) {
	rshape := adl.Tup("sobj", adl.V("s"), "seid", adl.Dot(adl.V("s"), "eid"))
	rop := &exec.MapOp{Child: &exec.Scan{Table: "SUPPLIER"}, Var: "s", Body: exec.NewScalar(rshape, "s")}
	join := &exec.HashJoin{
		Kind: adl.Inner,
		L:    &exec.Scan{Table: "DELIVERY"},
		R:    rop,
		LVar: "d", RVar: "r",
		LKey: exec.NewScalar(adl.Dot(adl.V("d"), "supplier"), "d"),
		RKey: exec.NewScalar(adl.Dot(adl.V("r"), "seid"), "r"),
	}
	body := adl.Exc(adl.SubT(adl.V("z"), "did", "supplier", "supply", "date"),
		"sup", adl.Dot(adl.V("z"), "sobj"))
	op := &exec.MapOp{Child: join, Var: "z", Body: exec.NewScalar(body, "z")}
	return exec.Collect(op, &exec.Ctx{DB: p.Store})
}

// AssemblyOp builds the pointer-based materialization arm's physical plan.
func (p *PointerJoinArms) AssemblyOp() exec.Operator {
	return &exec.Assembly{Child: &exec.Scan{Table: "DELIVERY"}, Attr: "supplier", As: "sup"}
}

// RunAssembly materializes via pointer dereferencing.
func (p *PointerJoinArms) RunAssembly() (*value.Set, error) {
	return exec.Collect(p.AssemblyOp(), &exec.Ctx{DB: p.Store})
}

// NewForallExchange builds the B6 workload (Rewriting Example 3 shape) on a
// synthetic set-of-sets database of the given size.
func NewForallExchange(nx, ny int, seed int64) (*storage.MemDB, adl.Expr, adl.Expr) {
	rng := newRng(seed)
	x := value.EmptySet()
	for i := 0; i < nx; i++ {
		c := value.EmptySet()
		for j := 0; j < 1+rng.Intn(3); j++ {
			inner := value.EmptySet()
			for k := 0; k < 1+rng.Intn(4); k++ {
				inner.Add(value.Int(int64(rng.Intn(ny))))
			}
			c.Add(inner)
		}
		x.Add(value.NewTuple("a", value.Int(int64(i)), "c", c))
	}
	y := value.EmptySet()
	for i := 0; i < ny; i++ {
		y.Add(value.NewTuple("d", value.Int(int64(i))))
	}
	db := storage.NewMemDB("XX", x, "YY", y)

	q := adl.CmpE(adl.Le, adl.Dot(adl.V("y"), "d"), adl.CInt(2))
	sub := adl.MapE("y", adl.Dot(adl.V("y"), "d"), adl.Sel("y", q, adl.T("YY")))
	naive := adl.Sel("x",
		adl.All("z", adl.Dot(adl.V("x"), "c"), adl.CmpE(adl.SupEq, adl.V("z"), sub)),
		adl.T("XX"))

	ctx := rewrite.NewStaticContext(map[string]*types.Tuple{
		"XX": types.NewTuple("a", types.IntType, "c", types.NewSet(types.NewSet(types.IntType))),
		"YY": types.NewTuple("d", types.IntType),
	})
	res := rewrite.Optimize(naive, ctx)
	return db, naive, res.Expr
}

// newRng is a deterministic rand source helper.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// ParallelJoinArms is the B8 workload: the same equi-key grouping join —
// nest each supplier's deliveries, keeping only the delivery oids — executed
// by the serial HashJoin and by the Grace-style PartitionedHashJoin. The
// per-probe work (match iteration plus the right-tuple function) happens
// inside the partitions, so it is the shape parallelism pays off on.
type ParallelJoinArms struct {
	Store *storage.Store
	// Parallelism is the partition count of the parallel arm: n > 0 means n
	// partitions, negative means NumCPU, and 0 means serial — the parallel
	// arm falls back to the serial HashJoin, giving benchmark sweeps a
	// control point (cmd/adlbench -parallel 0).
	Parallelism int
}

// NewParallelJoin builds the B8 workload.
func NewParallelJoin(suppliers, deliveries, parallelism int, seed int64) *ParallelJoinArms {
	st := bench.Generate(bench.Config{Suppliers: suppliers, Parts: 10, Fanout: 2,
		Deliveries: deliveries, Seed: seed})
	return &ParallelJoinArms{Store: st, Parallelism: parallelism}
}

// StrategyArms is the B9 workload: one logical equi-key join over the
// supplier-delivery schema, executed by every applicable forced physical
// strategy and by the optimizer — cost-based with collected statistics, or
// the size-threshold fallback without. It is the paper's §5.1 "the optimizer
// may choose" made measurable: the forced arms expose what each strategy
// costs, the optimizer arm shows which one the cost model picks.
type StrategyArms struct {
	Name  string
	Store *storage.Store
	// Join is the logical join (SUPPLIER × DELIVERY on eid = supplier).
	Join *adl.Join
	// Parallelism is the partition count for the partitioned arm and the
	// optimizer's parallel candidates; <=0 means NumCPU.
	Parallelism int

	stats *storage.DBStats
}

// Statistics returns the workload's collected statistics, running the
// ANALYZE pass on first use. B9 times the first call separately so the
// one-off collection cost is visible but not charged to the optimizer arm.
func (a *StrategyArms) Statistics() *storage.DBStats {
	if a.stats == nil {
		a.stats = a.Store.Analyze()
	}
	return a.stats
}

// Warm materializes both extents so no timed arm pays the store's one-off
// extent-cache build.
func (a *StrategyArms) Warm() error {
	for _, ext := range []string{"SUPPLIER", "DELIVERY"} {
		if _, err := a.Store.Table(ext); err != nil {
			return err
		}
	}
	return nil
}

// NewStrategyJoin builds a B9 workload of the given join kind and scale.
func NewStrategyJoin(name string, kind adl.JoinKind, suppliers, deliveries, parallelism int, seed int64) *StrategyArms {
	st := bench.Generate(bench.Config{Suppliers: suppliers, Parts: 10, Fanout: 2,
		Deliveries: deliveries, Seed: seed})
	j := adl.JoinE(adl.T("SUPPLIER"), "s", "d",
		adl.EqE(adl.Dot(adl.V("s"), "eid"), adl.Dot(adl.V("d"), "supplier")),
		adl.T("DELIVERY"))
	j.Kind = kind
	if kind == adl.NestJ {
		j.As = "ds"
		j.RFun = adl.SubT(adl.V("d"), "did")
	}
	return &StrategyArms{Name: name, Store: st, Join: j, Parallelism: parallelism}
}

// Arms lists the forced strategies applicable to this workload's join kind.
// The nested loop is skipped when the cross product exceeds a million pairs —
// at that scale it only proves the point by wasting minutes.
func (a *StrategyArms) Arms() []string {
	arms := []string{"hash"}
	if a.Join.Kind == adl.Inner {
		arms = append(arms, "hash-swap")
	}
	if a.Join.Kind == adl.Inner || a.Join.Kind == adl.NestJ {
		arms = append(arms, "sortmerge")
	}
	arms = append(arms, "parallel")
	if a.Store.Size("SUPPLIER")*a.Store.Size("DELIVERY") <= 1_000_000 {
		arms = append(arms, "nl")
	}
	return arms
}

// RunForced executes the join with one forced physical strategy.
func (a *StrategyArms) RunForced(arm string) (*value.Set, error) {
	lk := exec.NewScalar(adl.Dot(adl.V("s"), "eid"), "s")
	rk := exec.NewScalar(adl.Dot(adl.V("d"), "supplier"), "d")
	l := &exec.Scan{Table: "SUPPLIER"}
	r := &exec.Scan{Table: "DELIVERY"}
	var rfun *exec.Scalar
	if a.Join.RFun != nil {
		s := exec.NewScalar(a.Join.RFun, "s", "d")
		rfun = &s
	}
	var op exec.Operator
	switch arm {
	case "nl":
		op = &exec.NLJoin{Kind: a.Join.Kind, L: l, R: r, LVar: "s", RVar: "d",
			Pred: exec.NewScalar(a.Join.On, "s", "d"), As: a.Join.As, RFun: rfun}
	case "hash":
		op = &exec.HashJoin{Kind: a.Join.Kind, L: l, R: r, LVar: "s", RVar: "d",
			LKey: lk, RKey: rk, As: a.Join.As, RFun: rfun}
	case "hash-swap":
		if a.Join.Kind != adl.Inner {
			return nil, fmt.Errorf("B9: hash-swap applies to inner joins only")
		}
		op = &exec.HashJoin{Kind: adl.Inner, L: r, R: l, LVar: "d", RVar: "s",
			LKey: rk, RKey: lk}
	case "sortmerge":
		op = &exec.SortMergeJoin{Kind: a.Join.Kind, L: l, R: r, LVar: "s", RVar: "d",
			LKey: lk, RKey: rk, As: a.Join.As, RFun: rfun}
	case "parallel":
		op = &exec.PartitionedHashJoin{Kind: a.Join.Kind, L: l, R: r,
			LVar: "s", RVar: "d", LKey: lk, RKey: rk, As: a.Join.As, RFun: rfun,
			Partitions: a.Parallelism}
	default:
		return nil, fmt.Errorf("B9: unknown arm %q", arm)
	}
	return exec.Collect(op, &exec.Ctx{DB: a.Store})
}

// PlanOptimizer compiles the optimizer arm's plan: cost-based when analyze
// is set (statistics collected first), threshold fallback otherwise. The
// returned label describes the chosen strategy.
func (a *StrategyArms) PlanOptimizer(analyze bool) (*plan.Plan, string) {
	cfg := plan.Config{Parallelism: a.Parallelism}
	if analyze {
		cfg.Statistics = a.Statistics()
	} else {
		cfg.Stats = a.Store
	}
	pl := cfg.Plan(a.Join)
	label := strings.TrimPrefix(fmt.Sprintf("%T", pl.Root), "*exec.")
	if est, ok := pl.Estimate(pl.Root); ok && est.Note != "" {
		label += " (" + est.Note + ")"
	}
	return pl, label
}

// RunOptimizer executes the optimizer arm.
func (a *StrategyArms) RunOptimizer(analyze bool) (*value.Set, string, error) {
	pl, label := a.PlanOptimizer(analyze)
	set, err := exec.Collect(pl.Root, &exec.Ctx{DB: a.Store})
	return set, label, err
}

// StarJoinArms is the B10 workload: a four-extent star join —
// ORD(ordid, cust, item, qty) against ITEM, CUST and a region-filtered
// REGION — written in a deliberately poor order: the huge ORD ⋈ ITEM first,
// the selective region filter last. With collected statistics the two-phase
// optimizer decomposes the chain into a join graph and enumerates a cheaper
// order (filter REGION, shrink CUST, then touch ORD and ITEM); the baseline
// arm (plan.Config.NoReorder) prices the same physical operators but keeps
// the written order. Both arms must return the identical result set.
type StarJoinArms struct {
	Name  string
	Store *storage.Store
	// Query is the nested join chain in written (rewriter) order.
	Query adl.Expr
	// Parallelism feeds the planner's parallel candidates; <= 0 means NumCPU.
	Parallelism int

	stats *storage.DBStats
}

// starCatalog is the B10 schema: REGION ← CUST ← ORD → ITEM.
func starCatalog() *schema.Catalog {
	c := schema.NewCatalog()
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(c.Define(&schema.Class{
		Name: "Region", Extent: "REGION", IDField: "rid",
		Attrs: []schema.Attr{
			{Name: "rname", Kind: schema.Plain, Type: types.StringType},
		},
	}))
	must(c.Define(&schema.Class{
		Name: "Cust", Extent: "CUST", IDField: "cid",
		Attrs: []schema.Attr{
			{Name: "cname", Kind: schema.Plain, Type: types.StringType},
			{Name: "region", Kind: schema.Ref, RefClass: "Region"},
		},
	}))
	must(c.Define(&schema.Class{
		Name: "Item", Extent: "ITEM", IDField: "iid",
		Attrs: []schema.Attr{
			{Name: "iname", Kind: schema.Plain, Type: types.StringType},
			{Name: "weight", Kind: schema.Plain, Type: types.IntType},
		},
	}))
	must(c.Define(&schema.Class{
		Name: "Ord", Extent: "ORD", IDField: "ordid",
		Attrs: []schema.Attr{
			{Name: "cust", Kind: schema.Ref, RefClass: "Cust"},
			{Name: "item", Kind: schema.Ref, RefClass: "Item"},
			{Name: "qty", Kind: schema.Plain, Type: types.IntType},
		},
	}))
	return c
}

// NewStarJoin builds the B10 workload at the given extent sizes.
func NewStarJoin(orders, items, custs, regions int, parallelism int, seed int64) *StarJoinArms {
	rng := newRng(seed)
	st := storage.New(starCatalog())
	ins := func(extent string, t *value.Tuple) value.OID {
		oid, err := st.Insert(extent, t)
		if err != nil {
			panic(err)
		}
		return oid
	}
	regionOIDs := make([]value.OID, regions)
	for i := 0; i < regions; i++ {
		regionOIDs[i] = ins("REGION", value.NewTuple(
			"rname", value.String(fmt.Sprintf("region-%d", i))))
	}
	custOIDs := make([]value.OID, custs)
	for i := 0; i < custs; i++ {
		custOIDs[i] = ins("CUST", value.NewTuple(
			"cname", value.String(fmt.Sprintf("cust-%d", i)),
			"region", regionOIDs[rng.Intn(regions)]))
	}
	itemOIDs := make([]value.OID, items)
	for i := 0; i < items; i++ {
		itemOIDs[i] = ins("ITEM", value.NewTuple(
			"iname", value.String(fmt.Sprintf("item-%d", i)),
			"weight", value.Int(int64(rng.Intn(50)+1))))
	}
	for i := 0; i < orders; i++ {
		ins("ORD", value.NewTuple(
			"cust", custOIDs[rng.Intn(custs)],
			"item", itemOIDs[rng.Intn(items)],
			"qty", value.Int(int64(rng.Intn(20)+1))))
	}

	// ((ORD ⋈ ITEM) ⋈ CUST) ⋈ σ-REGION, worst-first: the biggest join is
	// written innermost and the only selective predicate outermost.
	j1 := adl.JoinE(adl.T("ORD"), "o", "i",
		adl.EqE(adl.Dot(adl.V("o"), "item"), adl.Dot(adl.V("i"), "iid")),
		adl.T("ITEM"))
	j2 := adl.JoinE(j1, "oi", "c",
		adl.EqE(adl.Dot(adl.V("oi"), "cust"), adl.Dot(adl.V("c"), "cid")),
		adl.T("CUST"))
	j3 := adl.JoinE(j2, "oic", "r",
		adl.AndE(
			adl.EqE(adl.Dot(adl.V("oic"), "region"), adl.Dot(adl.V("r"), "rid")),
			adl.EqE(adl.Dot(adl.V("r"), "rname"), adl.CStr("region-0"))),
		adl.T("REGION"))
	name := fmt.Sprintf("star[%dx%dx%dx%d]", orders, items, custs, regions)
	return &StarJoinArms{Name: name, Store: st, Query: j3, Parallelism: parallelism}
}

// Statistics runs the ANALYZE pass on first use.
func (a *StarJoinArms) Statistics() *storage.DBStats {
	if a.stats == nil {
		a.stats = a.Store.Analyze()
	}
	return a.stats
}

// Warm materializes every extent so no timed arm pays the one-off
// extent-cache build.
func (a *StarJoinArms) Warm() error {
	for _, ext := range []string{"ORD", "ITEM", "CUST", "REGION"} {
		if _, err := a.Store.Table(ext); err != nil {
			return err
		}
	}
	return nil
}

// Plan compiles the query cost-based; reorder false keeps the written order
// (the baseline arm), true enumerates.
func (a *StarJoinArms) Plan(reorder bool) *plan.Plan {
	cfg := plan.Config{Statistics: a.Statistics(), Parallelism: a.Parallelism,
		NoReorder: !reorder}
	return cfg.Plan(a.Query)
}

// Run executes one arm.
func (a *StarJoinArms) Run(reorder bool) (*value.Set, *plan.Plan, error) {
	pl := a.Plan(reorder)
	set, err := exec.Collect(pl.Root, &exec.Ctx{DB: a.Store})
	return set, pl, err
}

// RunReference executes the query rule-based (no statistics, serial) as the
// independent correctness baseline.
func (a *StarJoinArms) RunReference() (*value.Set, error) {
	return plan.Run(a.Query, a.Store)
}

// LookupJoinArms is the B11 workload: a selective lookup join —
// σ(sname = "supplier-42")(SUPPLIER) ⋈ DELIVERY on eid = supplier — where
// the filter keeps a single supplier, so probing DELIVERY's secondary index
// per outer row beats scanning and hashing the whole delivery extent. With
// Indexed set, an ordered index on SUPPLIER.sname and a hash index on
// DELIVERY.supplier are created, ANALYZE records them, and the cost model
// should choose an IndexScan leaf feeding an IndexNLJoin; the forced hash
// arms expose what the scan-based strategies cost on the same query.
type LookupJoinArms struct {
	Name  string
	Store *storage.Store
	// Query is the logical selective lookup join.
	Query adl.Expr
	// Parallelism feeds the planner's parallel candidates; <= 0 means NumCPU.
	Parallelism int
	// Indexed records whether the secondary indexes were created.
	Indexed bool

	stats *storage.DBStats
}

// NewLookupJoin builds the B11 workload; indexes toggles index creation (the
// -indexes=false A/B arm plans the same query without them).
func NewLookupJoin(suppliers, deliveries, parallelism int, indexes bool, seed int64) *LookupJoinArms {
	st := bench.Generate(bench.Config{Suppliers: suppliers, Parts: 10, Fanout: 2,
		Deliveries: deliveries, Seed: seed})
	if indexes {
		if err := st.CreateIndex("SUPPLIER", "sname", storage.OrderedIndex); err != nil {
			panic(err)
		}
		if err := st.EnsureIndexes("DELIVERY", "supplier"); err != nil {
			panic(err)
		}
	}
	sel := adl.Sel("s",
		adl.EqE(adl.Dot(adl.V("s"), "sname"), adl.CStr("supplier-42")),
		adl.T("SUPPLIER"))
	q := adl.JoinE(sel, "s", "d",
		adl.EqE(adl.Dot(adl.V("s"), "eid"), adl.Dot(adl.V("d"), "supplier")),
		adl.T("DELIVERY"))
	name := fmt.Sprintf("lookup[%dx%d]", suppliers, deliveries)
	return &LookupJoinArms{Name: name, Store: st, Query: q,
		Parallelism: parallelism, Indexed: indexes}
}

// Statistics runs the ANALYZE pass on first use (recording the indexes).
func (a *LookupJoinArms) Statistics() *storage.DBStats {
	if a.stats == nil {
		a.stats = a.Store.Analyze()
	}
	return a.stats
}

// Warm materializes both extents so no timed arm pays the one-off
// extent-cache build.
func (a *LookupJoinArms) Warm() error {
	for _, ext := range []string{"SUPPLIER", "DELIVERY"} {
		if _, err := a.Store.Table(ext); err != nil {
			return err
		}
	}
	return nil
}

// lookupJoinPieces builds the shared scalars of the forced arms.
func (a *LookupJoinArms) lookupJoinPieces() (filter, lk, rk exec.Scalar) {
	filter = exec.NewScalar(adl.EqE(adl.Dot(adl.V("s"), "sname"), adl.CStr("supplier-42")), "s")
	lk = exec.NewScalar(adl.Dot(adl.V("s"), "eid"), "s")
	rk = exec.NewScalar(adl.Dot(adl.V("d"), "supplier"), "d")
	return
}

// RunForcedHash executes the forced scan-based baseline: filter SUPPLIER by
// a full scan, hash join with DELIVERY. swap false builds on DELIVERY (the
// rewriter orientation), true builds on the filtered supplier side — the
// best plan available without indexes.
func (a *LookupJoinArms) RunForcedHash(swap bool) (*value.Set, error) {
	filter, lk, rk := a.lookupJoinPieces()
	l := exec.Operator(&exec.Filter{Child: &exec.Scan{Table: "SUPPLIER"}, Var: "s", Pred: filter})
	r := exec.Operator(&exec.Scan{Table: "DELIVERY"})
	var op exec.Operator
	if swap {
		op = &exec.HashJoin{Kind: adl.Inner, L: r, R: l, LVar: "d", RVar: "s",
			LKey: rk, RKey: lk}
	} else {
		op = &exec.HashJoin{Kind: adl.Inner, L: l, R: r, LVar: "s", RVar: "d",
			LKey: lk, RKey: rk}
	}
	return exec.Collect(op, &exec.Ctx{DB: a.Store})
}

// PlanOptimizer compiles the optimizer arm from collected statistics; with
// Indexed unset (or noIndexes forced) the planner sees no index entries and
// stays with the scan-based family.
func (a *LookupJoinArms) PlanOptimizer() *plan.Plan {
	cfg := plan.Config{Statistics: a.Statistics(), Parallelism: a.Parallelism,
		NoIndexes: !a.Indexed}
	return cfg.Plan(a.Query)
}

// RunOptimizer executes the optimizer arm, returning the result and a label
// for the chosen root operator.
func (a *LookupJoinArms) RunOptimizer() (*value.Set, string, error) {
	pl := a.PlanOptimizer()
	label := strings.TrimPrefix(fmt.Sprintf("%T", pl.Root), "*exec.")
	set, err := exec.Collect(pl.Root, &exec.Ctx{DB: a.Store})
	return set, label, err
}

// SkewJoinArms is the B12 workload: a three-relation star join over
// Zipf-skewed data. FACT references DIMA and DIMB uniformly; the query
// filters DIMA to its heavy-hitter category (which truly keeps most of the
// dimension, while the uniform 1/NDV rule estimates a sliver) and DIMB to
// one uniform group (estimated correctly by both models). Hash indexes on
// FACT.fa and FACT.fb let either dimension probe the bare FACT extent with
// an index-nested-loop join, so the join-order choice decides how many
// random FACT fetches the plan pays. With histograms the DP enumerator sees
// the hot filter for what it is and joins the genuinely selective DIMB side
// first; the NoHistograms arm is lured into probing with the "small" σDIMA
// and drags a several-times-larger intermediate through the rest of the
// plan — same result, strictly more pages and time.
type SkewJoinArms struct {
	Name  string
	Store *storage.Store
	// Query is the star join in written order (FACT ⋈ DIMA first).
	Query adl.Expr
	// HotCat is the skewed filter constant (the most frequent DIMA.cat).
	HotCat value.Value
	// Parallelism feeds the planner's parallel candidates; <= 0 means NumCPU.
	Parallelism int

	stats *storage.DBStats
}

// NewSkewJoin builds the B12 workload at the given scale.
func NewSkewJoin(facts, dims, parallelism int, seed int64) *SkewJoinArms {
	st := bench.GenerateSkew(bench.SkewConfig{
		Facts: facts, DimA: dims, DimB: dims, Seed: seed})
	if err := st.EnsureIndexes("FACT", "fa", "fb"); err != nil {
		panic(err)
	}
	hot, _ := bench.HotCategory(st)
	j1 := adl.JoinE(adl.T("FACT"), "f", "a",
		adl.AndE(
			adl.EqE(adl.Dot(adl.V("f"), "fa"), adl.Dot(adl.V("a"), "aid")),
			adl.EqE(adl.Dot(adl.V("a"), "cat"), adl.C(hot))),
		adl.T("DIMA"))
	q := adl.JoinE(j1, "fa2", "b",
		adl.AndE(
			adl.EqE(adl.Dot(adl.V("fa2"), "fb"), adl.Dot(adl.V("b"), "bid")),
			adl.EqE(adl.Dot(adl.V("b"), "grp"), adl.CInt(3))),
		adl.T("DIMB"))
	name := fmt.Sprintf("skew[%dx%d]", facts, dims)
	return &SkewJoinArms{Name: name, Store: st, Query: q, HotCat: hot,
		Parallelism: parallelism}
}

// Statistics runs the ANALYZE pass (histograms included) on first use.
func (a *SkewJoinArms) Statistics() *storage.DBStats {
	if a.stats == nil {
		a.stats = a.Store.Analyze()
	}
	return a.stats
}

// Warm materializes every extent so no timed arm pays the one-off
// extent-cache build.
func (a *SkewJoinArms) Warm() error {
	for _, ext := range []string{"FACT", "DIMA", "DIMB"} {
		if _, err := a.Store.Table(ext); err != nil {
			return err
		}
	}
	return nil
}

// Plan compiles the query cost-based from the same collected statistics;
// noHist true is the A/B control arm (plan.Config.NoHistograms).
func (a *SkewJoinArms) Plan(noHist bool) *plan.Plan {
	cfg := plan.Config{Statistics: a.Statistics(), Parallelism: a.Parallelism,
		NoHistograms: noHist}
	return cfg.Plan(a.Query)
}

// Run executes one arm.
func (a *SkewJoinArms) Run(noHist bool) (*value.Set, *plan.Plan, error) {
	pl := a.Plan(noHist)
	set, err := exec.Collect(pl.Root, &exec.Ctx{DB: a.Store})
	return set, pl, err
}

// RunReference executes the query rule-based (no statistics, serial) as the
// independent correctness baseline.
func (a *SkewJoinArms) RunReference() (*value.Set, error) {
	return plan.Run(a.Query, a.Store)
}

// parallelJoinScalars builds the shared key and right-tuple scalars.
func parallelJoinScalars() (lk, rk, rfun exec.Scalar) {
	lk = exec.NewScalar(adl.Dot(adl.V("s"), "eid"), "s")
	rk = exec.NewScalar(adl.Dot(adl.V("d"), "supplier"), "d")
	rfun = exec.NewScalar(adl.SubT(adl.V("d"), "did"), "s", "d")
	return
}

// SerialOp builds the serial arm's physical plan.
func (p *ParallelJoinArms) SerialOp() exec.Operator {
	lk, rk, rfun := parallelJoinScalars()
	return &exec.HashJoin{Kind: adl.NestJ, LVar: "s", RVar: "d",
		L: &exec.Scan{Table: "SUPPLIER"}, R: &exec.Scan{Table: "DELIVERY"},
		LKey: lk, RKey: rk, As: "ds", RFun: &rfun}
}

// RunSerial executes the grouping join with the serial HashJoin.
func (p *ParallelJoinArms) RunSerial() (*value.Set, error) {
	return exec.Collect(p.SerialOp(), &exec.Ctx{DB: p.Store})
}

// ParallelOp builds the partitioned parallel arm's physical plan.
func (p *ParallelJoinArms) ParallelOp() exec.Operator {
	lk, rk, rfun := parallelJoinScalars()
	return &exec.PartitionedHashJoin{Kind: adl.NestJ, LVar: "s", RVar: "d",
		L: &exec.Scan{Table: "SUPPLIER"}, R: &exec.Scan{Table: "DELIVERY"},
		LKey: lk, RKey: rk, As: "ds", RFun: &rfun,
		Partitions: p.Parallelism}
}

// RunParallel executes the same join with the partitioned parallel variant,
// or serially when Parallelism is 0 (the sweep's control point).
func (p *ParallelJoinArms) RunParallel() (*value.Set, error) {
	if p.Parallelism == 0 {
		return p.RunSerial()
	}
	return exec.Collect(p.ParallelOp(), &exec.Ctx{DB: p.Store})
}

// VecJoinArms is the B13 workload: the large equi-join + filter pipeline
// σ(date < cutoff)(DELIVERY) ⋉(d.supplier = s.eid) SUPPLIER, executed twice
// from identical logical form — once by the scalar reference operators, once
// by the vectorized batch pipeline (plan.Config.Vectorized). The cutoff
// keeps ~1/28 of the deliveries, so the scalar arm's per-row predicate
// interpretation dominates and the vectorized arm's typed kernels over the
// columnar projection show their full margin.
type VecJoinArms struct {
	Name  string
	Store *storage.Store
	// Query is the logical semi-join pipeline both arms compile.
	Query *adl.Join
	// BatchSize overrides the vectorized arm's rows-per-batch; 0 means
	// exec.DefaultBatchSize.
	BatchSize int
}

// NewVecJoin builds the B13 workload at a scale.
func NewVecJoin(suppliers, deliveries, batch int, seed int64) *VecJoinArms {
	st := bench.Generate(bench.Config{Suppliers: suppliers, Parts: 10, Fanout: 2,
		SupplySize: 1, Deliveries: deliveries, Seed: seed})
	sel := adl.Sel("d",
		adl.CmpE(adl.Lt, adl.Dot(adl.V("d"), "date"), adl.C(value.Date(940102))),
		adl.T("DELIVERY"))
	j := adl.JoinE(sel, "d", "s",
		adl.EqE(adl.Dot(adl.V("d"), "supplier"), adl.Dot(adl.V("s"), "eid")),
		adl.T("SUPPLIER"))
	j.Kind = adl.Semi
	return &VecJoinArms{
		Name:      fmt.Sprintf("VecJoin[%dx%d]", suppliers, deliveries),
		Store:     st,
		Query:     j,
		BatchSize: batch,
	}
}

// Warm materializes both extents and the vectorized arm's columnar
// projection so neither timed arm pays a one-off cache build.
func (a *VecJoinArms) Warm() error {
	for _, ext := range []string{"SUPPLIER", "DELIVERY"} {
		if _, err := a.Store.Table(ext); err != nil {
			return err
		}
	}
	_, err := a.Store.ColProj("DELIVERY", []string{"date", "supplier"})
	return err
}

// Plan compiles the query scalar or vectorized.
func (a *VecJoinArms) Plan(vectorized bool) *plan.Plan {
	cfg := plan.Config{}
	if vectorized {
		cfg.Vectorized = true
		cfg.BatchSize = a.BatchSize
	}
	return cfg.Plan(a.Query)
}

// PlanArm compiles the query for one of B14's four arms: scalar reference,
// parallel partitioned operators, vectorized batch kernels, or both
// combined (morsel-driven VecExchange feeding the partitioned batch join).
// The parallel arms are forced, not optimizer decisions: the threshold is
// pinned to 1 so the A/B comparison holds at smoke scales too, mirroring
// how -vectorized forces the batch pipeline.
func (a *VecJoinArms) PlanArm(vectorized, parallel bool, workers int) *plan.Plan {
	cfg := plan.Config{}
	if vectorized {
		cfg.Vectorized = true
		cfg.BatchSize = a.BatchSize
	}
	if parallel {
		cfg.Parallelism = workers
		cfg.Stats = a.Store
		cfg.ParallelThreshold = 1
	}
	return cfg.Plan(a.Query)
}
