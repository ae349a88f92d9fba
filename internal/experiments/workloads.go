package experiments

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"

	"repro/internal/adl"
	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/rewrite"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/value"
)

// seed drives every generator of the suite; bench.Generate defaults to it.
const seed = 94

// batchAllocCeiling is the most allocations a vectorized run over thousands
// of rows may make: a few dozen serial, about a hundred on four workers, so
// anything allocated per row lands far above it.
const batchAllocCeiling = 512

// pick returns full, or small at smoke scale.
func pick(quick bool, full, small int) int {
	if quick {
		return small
	}
	return full
}

// cases lists case builders.
func cases(fs ...func() Case) []func() Case { return fs }

// sized builds one case per size pair, {full a, full b, small a, small b}.
func sized(quick bool, sizes [][4]int, mk func(a, b int) Case) []func() Case {
	var out []func() Case
	for _, s := range sizes {
		a, b := pick(quick, s[0], s[2]), pick(quick, s[1], s[3])
		out = append(out, func() Case { return mk(a, b) })
	}
	return out
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// Suite is the experiment suite in presentation order: B1–B9, B11, B13 and
// B14.
var Suite = []Experiment{
	{ID: "B1", Title: "EQ5: suppliers supplying red parts (σ[∃∃] vs semijoin)",
		Cases: func(q bool) []func() Case {
			return sized(q, [][4]int{{200, 400, 50, 100}, {800, 1600, 100, 200}, {3200, 6400, 200, 400}}, func(s, p int) Case {
				c := EQ5(s, p)
				c.Arms = append(c.Arms, Arm{Label: "semijoin(NL)", Expr: c.Query})
				return c
			})
		},
		Notes: []string{"semijoin(NL) runs the rewritten form through the interpreter: it isolates the logical rewrite from the physical win"}},

	{ID: "B2", Title: "EQ4: referential-integrity check (σ[∃¬∃] vs μ+antijoin)",
		Cases: func(q bool) []func() Case {
			return sized(q, [][4]int{{200, 400, 50, 100}, {800, 1600, 100, 200}, {3200, 6400, 200, 400}}, EQ4)
		},
		Notes: []string{"rows are the violations: suppliers referencing a part that does not exist"}},

	{ID: "B3", Title: "subset query: nested loop vs nestjoin vs join+nest [GaWo87] vs outerjoin repair",
		Cases: func(q bool) []func() Case {
			var out []func() Case
			for _, f := range []float64{0, 0.1, 0.5} {
				out = append(out, func() Case { return grouping(Subset(pick(q, 600, 100), pick(q, 300, 60), f), f) })
			}
			return out
		},
		Notes: []string{
			"join+nest silently loses exactly the suppliers whose subquery is empty (the Complex Object bug)",
			"the Table 3 guard refuses that plan: P(x, ∅) = (parts ⊆ ∅) is run-time dependent",
			"the [GaWo87] outerjoin repair (§5.2.2) is correct but pays the wider join; the nestjoin needs neither nulls nor repair"}},

	{ID: "B4", Title: "materialize parts: PNHL vs alternatives",
		Cases: func(q bool) []func() Case {
			return cases(func() Case {
				return Materialize(pick(q, 800, 100), pick(q, 2000, 200), pick(q, 16, 8),
					0, pick(q, 1024, 128), pick(q, 256, 64), pick(q, 64, 16))
			})
		},
		Notes: []string{
			"unnest-join-nest loses suppliers with empty part sets and pays restructuring",
			"only the flat table can be PNHL's build input; budgets below the build size add probe passes"}},

	{ID: "B5", Title: "materialize d.supplier: value hash join vs pointer-based assembly",
		Cases: func(q bool) []func() Case {
			return sized(q, [][4]int{{1000, 1000, 100, 100}, {10000, 5000, 400, 400}}, PointerJoin)
		},
		Notes: []string{"assembly touches exactly one object per reference; the hash join scans and hashes the whole supplier extent"}},

	{ID: "B6", Title: "∀z ∈ x.c • z ⊇ Y′: nested loop vs exchanged antijoin",
		Cases: func(q bool) []func() Case {
			return sized(q, [][4]int{{200, 200, 50, 50}, {800, 800, 100, 100}}, ForallExchange)
		},
		Notes: []string{"the antijoin evaluates the uncorrelated subquery once and stops at the first witness"}},

	{ID: "B7", Title: "end-to-end §4 strategy on the paper's example queries",
		Cases: func(q bool) []func() Case {
			s, p := pick(q, 500, 80), pick(q, 1000, 120)
			return cases(func() Case { return EQ5(s, p) }, func() Case { return EQ4(s, p) },
				func() Case { return EQ6(s/4, p) }, func() Case { return Subset(s, p, 0.1) })
		},
		Notes: []string{"the optimized arm names the §4 options that fired; it is rewritten once and planned once, as a cached query is"}},

	{ID: "B8", Title: "grouping join: HashJoin serial vs parallel",
		Cases: func(q bool) []func() Case {
			return sized(q, [][4]int{{2000, 20000, 200, 2000}, {8000, 80000, 400, 4000}}, func(s, d int) Case {
				c := StrategyJoin("group", adl.NestJ, s, d).Only("hash", "parallel")
				c.Analyze = false
				c.Check = func(rs []Result) error { return parallelArms(rs, "parallel") }
				return c
			})
		},
		Notes: []string{fmt.Sprintf("the build keys are evaluated and the one table probed in %d shares (one per CPU, at least two), a goroutine each",
			workers())}},

	{ID: "B9", Title: "forced join strategies vs the cost-based optimizer's choice",
		Cases: func(q bool) []func() Case {
			s, d := pick(q, 2000, 200), pick(q, 20000, 2000)
			return cases(func() Case {
				c := StrategyJoin("inner_asym", adl.Inner, s/10, d)
				c.Check = func(rs []Result) error {
					if shape := find(rs, "optimizer").shape(); !strings.Contains(shape, "build side swapped") {
						return fmt.Errorf("optimizer kept the large side as the build input: %s", shape)
					}
					return nil
				}
				return c
			}, func() Case { return StrategyJoin("group_small", adl.NestJ, s/4, d/20) },
				func() Case { return StrategyJoin("group_big", adl.NestJ, s, d) })
		},
		Notes: []string{"every forced arm and the optimizer's plan return the hash arm's result; the nested loop runs only up to a million pairs"}},

	{ID: "B11", Title: "selective lookup join: forced hash vs index-nested-loop",
		Cases: func(q bool) []func() Case {
			return cases(func() Case { return LookupJoin(pick(q, 2000, 200), pick(q, 50000, 5000)) })
		},
		Notes: []string{"the index plan never scans DELIVERY: per-probe index lookups replace the full hash build",
			"Config.NoIndexes plans the same query from the same statistics as if the indexes did not exist"}},

	{ID: "B13", Title: "vectorized batch execution: scalar vs columnar kernels (semi-join pipeline)",
		Cases: func(q bool) []func() Case {
			return cases(func() Case {
				c := VecJoin(pick(q, 400, 60), pick(q, 40000, 1200), workers()).Only("scalar", "vectorized")
				c.Check = func(rs []Result) error {
					if err := plannedBatch(rs); err != nil {
						return err
					}
					scalar, vec := find(rs, "scalar"), find(rs, "vectorized")
					if vec.Allocs > batchAllocCeiling {
						return fmt.Errorf("vectorized run allocates %d times, more than %d: something is allocated per row",
							vec.Allocs, batchAllocCeiling)
					}
					if !q && vec.Time*3 > scalar.Time {
						return fmt.Errorf("vectorized (%v) not ≥3x faster than scalar (%v)", vec.Time, scalar.Time)
					}
					return nil
				}
				return c
			})
		},
		Notes: []string{"the scalar arm is the row pipeline (Filter over Scan) built by hand; the vectorized arm is the planner's own pick, which must be a ColumnScan",
			"the vectorized arm filters the snapshot-pinned columnar projection with a typed kernel and hash-joins the rows that pass",
			fmt.Sprintf("vectorized must allocate at most %d times per run, and at full scale be ≥3x faster", batchAllocCeiling)}},

	{ID: "B14", Title: "parallel vectorized execution: four-way A/B (semi-join pipeline)",
		Cases: func(q bool) []func() Case {
			return cases(func() Case {
				c := VecJoin(pick(q, 400, 60), pick(q, 200000, 1200), workers())
				shape := c.Check
				c.Check = func(rs []Result) error {
					if err := shape(rs); err != nil {
						return err
					}
					vec, parvec := find(rs, "vectorized"), find(rs, "parallel-vectorized")
					switch cpus := exec.Parallelism(0); {
					case cpus < 4:
						return Skipped(fmt.Sprintf("B14 ≥2x gate: skipped (%d CPUs)", cpus))
					case q:
						return Skipped("B14 ≥2x gate: skipped (smoke scale)")
					case parvec.Time*2 > vec.Time:
						return fmt.Errorf("parallel-vectorized (%v) not ≥2x faster than vectorized (%v) on %d CPUs",
							parvec.Time, vec.Time, cpus)
					}
					return nil
				}
				return c
			})
		},
		Notes: []string{fmt.Sprintf("parallel arms run the hash join on %d workers (one per CPU, at least two), over the serial Filter and over a parallel ColumnScan; at full scale on ≥4 CPUs parallel-vectorized must halve vectorized (a note says when this gate is skipped)",
			workers()),
			"the parallel-vectorized arm's ColumnScan runs one contiguous share of the projection per worker and joins their rows in order: no per-tuple sends"}},
}

// nested is a case of the §4 strategy on a generated supplier-part store:
// the nested-loop reference arm, and the rewritten query as planned.
func nested(name string, cfg bench.Config, naive adl.Expr) Case {
	st := bench.Generate(cfg)
	res := rewrite.Optimize(naive, rewrite.NewContext(st.Catalog()))
	return Case{Name: name, DB: st, Query: res.Expr, Arms: []Arm{
		{Label: "nested-loop", Expr: naive},
		{Label: "optimized " + strings.Join(res.OptionsUsed, "+"), Cfg: &plan.Config{}},
	}}
}

// EQ5 is Example Query 5, suppliers supplying red parts: an existential
// nesting the rewriter turns into a semijoin (Rule 1).
func EQ5(suppliers, parts int) Case {
	return nested(fmt.Sprintf("EQ5[%dx%d]", suppliers, parts), bench.Config{Suppliers: suppliers, Parts: parts},
		adl.Sel("s",
			adl.Ex("x", adl.Dot(adl.V("s"), "parts"),
				adl.Ex("p", adl.T("PART"),
					adl.AndE(adl.EqE(adl.V("x"), adl.SubT(adl.V("p"), "pid")),
						adl.EqE(adl.Dot(adl.V("p"), "color"), adl.CStr("red"))))),
			adl.T("SUPPLIER")))
}

// EQ4 is Example Query 4, referential-integrity violations: a negated
// existential over a set attribute, unnested and antijoined.
func EQ4(suppliers, parts int) Case {
	return nested(fmt.Sprintf("EQ4[%dx%d]", suppliers, parts),
		bench.Config{Suppliers: suppliers, Parts: parts, DanglingFrac: 0.01},
		adl.MapE("s", adl.Dot(adl.V("s"), "eid"),
			adl.Sel("s",
				adl.Ex("z", adl.Dot(adl.V("s"), "parts"),
					adl.NotE(adl.Ex("p", adl.T("PART"),
						adl.EqE(adl.V("z"), adl.SubT(adl.V("p"), "pid"))))),
				adl.T("SUPPLIER"))))
}

// EQ6 is Example Query 6, supplier names with the parts supplied: nesting
// in the select clause, which becomes a nestjoin.
func EQ6(suppliers, parts int) Case {
	return nested(fmt.Sprintf("EQ6[%dx%d]", suppliers, parts), bench.Config{Suppliers: suppliers, Parts: parts},
		adl.MapE("s",
			adl.Tup("sname", adl.Dot(adl.V("s"), "sname"),
				"parts_suppl", adl.Sel("p",
					adl.CmpE(adl.In, adl.SubT(adl.V("p"), "pid"), adl.Dot(adl.V("s"), "parts")),
					adl.T("PART"))),
			adl.T("SUPPLIER")))
}

// Subset is the Figure 1/2 query shape on the supplier-part schema,
// suppliers all of whose parts are cheap: s.parts ⊆ Y′ with the correlated
// block Y′ = {⟨pid⟩ | p ∈ PART, p[pid] ∈ s.parts, p.price < 60}, over a store
// where a fraction of the suppliers has no parts. P(x, ∅) = (s.parts ⊆ ∅) is
// run-time dependent, so grouping is buggy — suppliers with empty part sets
// vacuously qualify but are lost by the join — and the strategy must use
// the nestjoin.
func Subset(suppliers, parts int, emptyFrac float64) Case {
	sub := adl.MapE("p", adl.Tup("pid", adl.Dot(adl.V("p"), "pid")),
		adl.Sel("p", adl.AndE(
			adl.CmpE(adl.In, adl.SubT(adl.V("p"), "pid"), adl.Dot(adl.V("s"), "parts")),
			adl.CmpE(adl.Lt, adl.Dot(adl.V("p"), "price"), adl.CInt(60))),
			adl.T("PART")))
	return nested(fmt.Sprintf("subset[%dx%d,empty=%.0f%%]", suppliers, parts, emptyFrac*100),
		bench.Config{Suppliers: suppliers, Parts: parts, EmptyFrac: emptyFrac},
		adl.Sel("s", adl.CmpE(adl.SubEq, adl.Dot(adl.V("s"), "parts"), sub), adl.T("SUPPLIER")))
}

// grouping adds to a Subset case the [GaWo87] join+nest plan of its naive
// query, forced past the Table 3 guard (the buggy plan of Figure 2), and its
// outer-join repair, and checks that the buggy plan loses tuples exactly
// when some suppliers have no parts.
func grouping(c Case, emptyFrac float64) Case {
	ctx := func() *rewrite.Context { return rewrite.NewContext(c.DB.(*storage.Store).Catalog()) }
	base := rewrite.NewEngine(rewrite.NormalizeRules()).Run(c.Arms[0].Expr, ctx())
	grouped, ok := rewrite.UnnestByGrouping(base, ctx(), true)
	repaired, ok2 := rewrite.UnnestByGroupingOuter(base, ctx())
	if !ok || !ok2 {
		panic("experiments: grouping plans not derivable for " + c.Name)
	}
	c.Arms = append(c.Arms, Arm{Label: "join+nest", Expr: grouped, Lossy: true}, Arm{Label: "outerjoin", Expr: repaired})
	c.Check = func(rs []Result) error {
		lost := rs[0].Set.Len() - find(rs, "join+nest").Set.Len()
		if (lost > 0) != (emptyFrac > 0) {
			return fmt.Errorf("join+nest lost %d tuples with %.0f%% empty part sets", lost, emptyFrac*100)
		}
		return nil
	}
	return c
}

// Materialize attaches to every supplier the set of PART objects it
// references ([DeLa92], §6.2): the per-tuple loop, the set-probe nestjoin,
// unnest–join–nest, and at each build-side budget (rows per segment; 0 =
// unlimited) PNHL over the scan and over a ColumnScan without kernels.
func Materialize(suppliers, parts, fanout int, budgets ...int) Case {
	st := bench.Generate(bench.Config{Suppliers: suppliers, Parts: parts, Fanout: fanout, EmptyFrac: 0.05})
	naive := adl.MapE("s",
		adl.Exc(adl.V("s"), "parts",
			adl.Sel("p", adl.CmpE(adl.In, adl.SubT(adl.V("p"), "pid"), adl.Dot(adl.V("s"), "parts")), adl.T("PART"))),
		adl.T("SUPPLIER"))
	// The nestjoin yields (eid, sname, parts, ys); the map reshapes it to parts := ys.
	nestjoin := &exec.MapOp{Var: "z",
		Child: &exec.HashJoin{Kind: adl.NestJ, L: &exec.Scan{Table: "SUPPLIER"}, R: &exec.Scan{Table: "PART"},
			In: "parts", RKey: exec.NewScalar(adl.SubT(adl.V("p"), "pid"), "p"), As: "ys"},
		Body: exec.NewScalar(adl.Exc(adl.SubT(adl.V("z"), "eid", "sname"), "parts", adl.Dot(adl.V("z"), "ys")), "z")}
	// μ_parts(SUPPLIER) ⋈ PART wrapped as (pobj = p, jpid = p.pid) to avoid
	// the pid conflict, then ν: suppliers with no parts are lost by μ.
	unjoin := &exec.NestOp{Attrs: []string{"pid", "pobj", "jpid"}, As: "parts",
		Child: &exec.HashJoin{Kind: adl.Inner, LVar: "l", RVar: "r",
			L: &exec.UnnestOp{Child: &exec.Scan{Table: "SUPPLIER"}, Attr: "parts"},
			R: &exec.MapOp{Child: &exec.Scan{Table: "PART"}, Var: "p",
				Body: exec.NewScalar(adl.Tup("pobj", adl.V("p"), "jpid", adl.Dot(adl.V("p"), "pid")), "p")},
			LKey: exec.NewScalar(adl.Dot(adl.V("l"), "pid"), "l"),
			RKey: exec.NewScalar(adl.Dot(adl.V("r"), "jpid"), "r")}}
	arms := []Arm{{Label: "nested-loop", Expr: naive}, {Label: "nestjoin(set-probe)", Op: nestjoin},
		{Label: "unnest-join-nest", Op: unjoin, Lossy: true}}
	member := exec.NewScalar(adl.V("y"), "e", "y")
	elemKey, buildKey := exec.NewScalar(adl.Dot(adl.V("e"), "pid"), "e"), exec.NewScalar(adl.Dot(adl.V("y"), "pid"), "y")
	for _, b := range budgets {
		budget := "unlimited"
		if b > 0 {
			budget = fmt.Sprint(b)
		}
		label := fmt.Sprintf("PNHL budget %s (%d segments)", budget, exec.Segments(parts, b))
		arms = append(arms,
			Arm{Label: label, Op: &exec.PNHL{L: &exec.Scan{Table: "SUPPLIER"}, R: &exec.Scan{Table: "PART"},
				Attr: "parts", ElemKey: elemKey, BuildKey: buildKey, BudgetRows: b, Member: &member}},
			Arm{Label: "Vec" + label, Op: &exec.PNHL{
				L: &exec.ColumnScan{Extent: "SUPPLIER", Attrs: []string{"parts"}},
				R: &exec.Scan{Table: "PART"}, Attr: "parts", ElemKey: elemKey, BuildKey: buildKey, BudgetRows: b, Member: &member}})
	}
	return Case{Name: fmt.Sprintf("materialize[%dx%d,fanout %d]", suppliers, parts, fanout), DB: st, Arms: arms,
		Check: func(rs []Result) error {
			if n := find(rs, "unnest-join-nest").Set.Len(); n >= rs[0].Set.Len() {
				return fmt.Errorf("unnest-join-nest kept all %d suppliers, the ones without parts included", n)
			}
			if exec.Segments(parts, budgets[0]) != 1 || exec.Segments(parts, budgets[len(budgets)-1]) < 2 {
				return fmt.Errorf("budgets %v over %d build rows do not span one to several segments", budgets, parts)
			}
			return nil
		}}
}

// PointerJoin materializes each delivery's supplier object ([BlMG93],
// §6.2): by value-based hash join on the oid, and by pointer-based assembly,
// which dereferences exactly one object per delivery.
func PointerJoin(suppliers, deliveries int) Case {
	st := bench.Generate(bench.Config{Suppliers: suppliers, Parts: 10, Fanout: 2, Deliveries: deliveries})
	hash := &exec.MapOp{Var: "z",
		Child: &exec.HashJoin{Kind: adl.Inner, LVar: "d", RVar: "r",
			L: &exec.Scan{Table: "DELIVERY"},
			R: &exec.MapOp{Child: &exec.Scan{Table: "SUPPLIER"}, Var: "s",
				Body: exec.NewScalar(adl.Tup("sobj", adl.V("s"), "seid", adl.Dot(adl.V("s"), "eid")), "s")},
			LKey: exec.NewScalar(adl.Dot(adl.V("d"), "supplier"), "d"),
			RKey: exec.NewScalar(adl.Dot(adl.V("r"), "seid"), "r")},
		Body: exec.NewScalar(adl.Exc(adl.SubT(adl.V("z"), "did", "supplier", "supply", "date"),
			"sup", adl.Dot(adl.V("z"), "sobj")), "z")}
	return Case{Name: fmt.Sprintf("pointer[%dx%d]", suppliers, deliveries), DB: st, Arms: []Arm{
		{Label: "hash join", Op: hash},
		{Label: "assembly", Op: &exec.Assembly{Child: &exec.Scan{Table: "DELIVERY"}, Attr: "supplier", As: "sup"}},
	}, Check: func(rs []Result) error {
		if n := find(rs, "assembly").IO.ObjectReads; n != deliveries {
			return fmt.Errorf("assembly read %d objects for %d references", n, deliveries)
		}
		return nil
	}}
}

// ForallExchange is the Rewriting Example 3 shape on a synthetic
// set-of-sets database: the nested ∀⊇ query against its exchanged antijoin
// form, both run by the interpreter.
func ForallExchange(nx, ny int) Case {
	rng := rand.New(rand.NewSource(seed))
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
	sub := adl.MapE("y", adl.Dot(adl.V("y"), "d"),
		adl.Sel("y", adl.CmpE(adl.Le, adl.Dot(adl.V("y"), "d"), adl.CInt(2)), adl.T("YY")))
	naive := adl.Sel("x", adl.All("z", adl.Dot(adl.V("x"), "c"), adl.CmpE(adl.SupEq, adl.V("z"), sub)), adl.T("XX"))
	res := rewrite.Optimize(naive, rewrite.NewStaticContext(map[string]*types.Tuple{
		"XX": types.NewTuple("a", types.IntType, "c", types.NewSet(types.NewSet(types.IntType))),
		"YY": types.NewTuple("d", types.IntType),
	}))
	return Case{Name: fmt.Sprintf("forall[%dx%d]", nx, ny), DB: storage.NewMemDB("XX", x, "YY", y), Arms: []Arm{
		{Label: "nested-loop", Expr: naive},
		{Label: "antijoin", Expr: res.Expr},
	}}
}

// StrategyJoin is one logical equi-join of SUPPLIER and DELIVERY on
// s.eid = d.supplier — inner, or nesting each supplier's delivery oids —
// run by every applicable physical strategy, forced, and as the cost-based
// optimizer plans it: §5.1's "the optimizer may choose" made measurable.
// The nested loop is left out above a million pairs, where it only proves
// the point by wasting minutes.
func StrategyJoin(name string, kind adl.JoinKind, suppliers, deliveries int) Case {
	st := bench.Generate(bench.Config{Suppliers: suppliers, Parts: 10, Fanout: 2, Deliveries: deliveries})
	j := adl.JoinE(adl.T("SUPPLIER"), "s", "d",
		adl.EqE(adl.Dot(adl.V("s"), "eid"), adl.Dot(adl.V("d"), "supplier")), adl.T("DELIVERY"))
	j.Kind = kind
	var rfun *exec.Scalar
	if kind == adl.NestJ {
		j.As, j.RFun = "ds", adl.SubT(adl.V("d"), "did")
		s := exec.NewScalar(j.RFun, "s", "d")
		rfun = &s
	}
	lk, rk := exec.NewScalar(adl.Dot(adl.V("s"), "eid"), "s"), exec.NewScalar(adl.Dot(adl.V("d"), "supplier"), "d")
	l, r := &exec.Scan{Table: "SUPPLIER"}, &exec.Scan{Table: "DELIVERY"}
	arms := []Arm{{Label: "hash", Op: &exec.HashJoin{Kind: kind, L: l, R: r, LVar: "s", RVar: "d",
		LKey: lk, RKey: rk, As: j.As, RFun: rfun}}}
	if kind == adl.Inner {
		arms = append(arms, Arm{Label: "hash-swap", Op: &exec.HashJoin{Kind: adl.Inner, L: r, R: l, LVar: "d", RVar: "s",
			LKey: rk, RKey: lk}})
	}
	arms = append(arms, Arm{Label: "parallel", Op: &exec.HashJoin{Kind: kind, L: l, R: r, LVar: "s", RVar: "d",
		LKey: lk, RKey: rk, As: j.As, RFun: rfun, Workers: workers()}})
	if suppliers*deliveries <= 1_000_000 {
		arms = append(arms, Arm{Label: "nl", Op: &exec.NLJoin{Kind: kind, L: l, R: r, LVar: "s", RVar: "d",
			Pred: exec.NewScalar(j.On, "s", "d"), As: j.As, RFun: rfun}})
	}
	arms = append(arms, Arm{Label: "optimizer", Cfg: &plan.Config{}})
	return Case{Name: fmt.Sprintf("%s[%dx%d]", name, suppliers, deliveries), DB: st, Query: j, Arms: arms, Analyze: true}
}

// LookupJoin is a selective lookup join, σ(sname = "supplier-42")(SUPPLIER)
// ⋈ DELIVERY on eid = supplier, over an ordered index on SUPPLIER.sname and
// a hash index on DELIVERY.supplier. The filter keeps one supplier, so
// probing the delivery index per outer row beats scanning and hashing the
// extent: from statistics that record the indexes, the optimizer must choose
// the index-nested-loop join and beat both forced hash joins on time and
// page reads.
func LookupJoin(suppliers, deliveries int) Case {
	st := bench.Generate(bench.Config{Suppliers: suppliers, Parts: 10, Fanout: 2, Deliveries: deliveries})
	must(st.CreateIndex("SUPPLIER", "sname", storage.OrderedIndex))
	must(st.EnsureIndexes("DELIVERY", "supplier"))
	target := adl.EqE(adl.Dot(adl.V("s"), "sname"), adl.CStr("supplier-42"))
	q := adl.JoinE(adl.Sel("s", target, adl.T("SUPPLIER")), "s", "d",
		adl.EqE(adl.Dot(adl.V("s"), "eid"), adl.Dot(adl.V("d"), "supplier")), adl.T("DELIVERY"))
	lk, rk := exec.NewScalar(adl.Dot(adl.V("s"), "eid"), "s"), exec.NewScalar(adl.Dot(adl.V("d"), "supplier"), "d")
	l := &exec.Filter{Child: &exec.Scan{Table: "SUPPLIER"}, Var: "s", Pred: exec.NewScalar(target, "s")}
	r := &exec.Scan{Table: "DELIVERY"}
	hashArms := []string{"hash (build DELIVERY)", "hash (build σSUPPLIER)"}
	return Case{Name: fmt.Sprintf("lookup[%dx%d]", suppliers, deliveries), DB: st, Query: q, Analyze: true, Runs: 3,
		Arms: []Arm{
			{Label: hashArms[0], Op: &exec.HashJoin{Kind: adl.Inner, L: l, R: r, LVar: "s", RVar: "d", LKey: lk, RKey: rk}},
			{Label: hashArms[1], Op: &exec.HashJoin{Kind: adl.Inner, L: r, R: l, LVar: "d", RVar: "s", LKey: rk, RKey: lk}},
			{Label: "optimizer", Cfg: &plan.Config{}},
			{Label: "optimizer, NoIndexes", Cfg: &plan.Config{NoIndexes: true}},
		}, Check: func(rs []Result) error {
			opt := find(rs, "optimizer")
			if _, ok := opt.Plan.Root.(*exec.IndexNLJoin); !ok {
				return fmt.Errorf("optimizer chose %s, want IndexNLJoin", opt.shape())
			}
			if x := find(rs, "optimizer, NoIndexes").Plan.Explain(); strings.Contains(x, "Index") {
				return fmt.Errorf("NoIndexes plan uses an index:\n%s", x)
			}
			for _, label := range hashArms {
				h := find(rs, label)
				if opt.Time >= h.Time || opt.IO.PageReads >= h.IO.PageReads {
					return fmt.Errorf("index plan (%v, %d page reads) not cheaper than %s (%v, %d)",
						opt.Time, opt.IO.PageReads, label, h.Time, h.IO.PageReads)
				}
			}
			return nil
		}}
}

// VecJoin is the large equi-join + filter pipeline σ(date < cutoff)(DELIVERY)
// ⋉(d.supplier = s.eid) SUPPLIER four ways: the row pipeline (Filter over
// Scan) under the hash join, built by hand; the query as planned, where the
// cost model puts σ on the batch kernels over the columnar projection; and
// each hand-built with the hash join on the given workers — over the serial
// Filter, and over a parallel ColumnScan. The cutoff keeps 1/28 of the
// deliveries, so per-row predicate interpretation dominates the scalar arm.
// The check is that the planned arm runs a ColumnScan and that both parallel
// arms hold a parallel node: run serially, they would prove nothing.
func VecJoin(suppliers, deliveries, workers int) Case {
	st := bench.Generate(bench.Config{Suppliers: suppliers, Parts: 10, Fanout: 2, SupplySize: 1, Deliveries: deliveries})
	cut := adl.CmpE(adl.Lt, adl.Dot(adl.V("d"), "date"), adl.C(value.Date(940102)))
	j := adl.JoinE(adl.Sel("d", cut, adl.T("DELIVERY")), "d", "s",
		adl.EqE(adl.Dot(adl.V("d"), "supplier"), adl.Dot(adl.V("s"), "eid")), adl.T("SUPPLIER"))
	j.Kind = adl.Semi
	pred := exec.NewScalar(cut, "d")
	lk, rk := exec.NewScalar(adl.Dot(adl.V("d"), "supplier"), "d"), exec.NewScalar(adl.Dot(adl.V("s"), "eid"), "s")
	return Case{Name: fmt.Sprintf("VecJoin[%dx%d]", suppliers, deliveries), DB: st, Query: j, Runs: 3, Arms: []Arm{
		{Label: "scalar", Op: &exec.HashJoin{Kind: adl.Semi, LVar: "d", RVar: "s", LKey: lk, RKey: rk,
			L: &exec.Filter{Child: &exec.Scan{Table: "DELIVERY"}, Var: "d", Pred: pred},
			R: &exec.Scan{Table: "SUPPLIER"}}},
		{Label: "vectorized", Cfg: &plan.Config{}},
		{Label: "parallel", Op: &exec.HashJoin{Kind: adl.Semi, LVar: "d", RVar: "s", LKey: lk, RKey: rk,
			L: &exec.Filter{Child: &exec.Scan{Table: "DELIVERY"}, Var: "d", Pred: pred},
			R: &exec.Scan{Table: "SUPPLIER"}, Workers: workers}},
		{Label: "parallel-vectorized", Op: &exec.HashJoin{Kind: adl.Semi, LVar: "d", RVar: "s", LKey: lk, RKey: rk,
			L: &exec.ColumnScan{Extent: "DELIVERY", Attrs: []string{"date"}, Var: "d", Workers: workers,
				Kernels: []exec.VecCmp{{Attr: "date", Op: adl.Lt, Const: value.Date(940102), Pred: pred}}},
			R: &exec.Scan{Table: "SUPPLIER"}, Workers: workers}},
	}, Check: func(rs []Result) error {
		if err := plannedBatch(rs); err != nil {
			return err
		}
		if x := find(rs, "parallel-vectorized").Plan.Explain(); !parallelHashJoin.MatchString(x) || !strings.Contains(x, "ColumnScan(") {
			return fmt.Errorf("parallel-vectorized arm is not a parallel hash join over a ColumnScan:\n%s", x)
		}
		return parallelArms(rs, "parallel", "parallel-vectorized")
	}}
}

// parallelHashJoin matches the Explain line of a HashJoin on more than one
// worker.
var parallelHashJoin = regexp.MustCompile(`HashJoin\[.* workers\]  -- parallel`)

// plannedBatch fails unless VecJoin's planned arm runs σ on a ColumnScan: the
// cost model, not a flag, chose it.
func plannedBatch(rs []Result) error {
	if x := find(rs, "vectorized").Plan.Explain(); !strings.Contains(x, "ColumnScan(") {
		return fmt.Errorf("the planned arm does not run σ on a ColumnScan:\n%s", x)
	}
	return nil
}

// workers is the worker count of the suite's hand-built parallel arms: one
// per CPU the scheduler runs goroutines on, and at least two, so that they
// run the parallel code on any host.
func workers() int { return max(2, exec.Parallelism(0)) }

// parallelArms fails unless the plan of every labelled arm holds a node with
// a worker count above one — what Explain labels "parallel".
func parallelArms(rs []Result, labels ...string) error {
	for _, label := range labels {
		if x := find(rs, label).Plan.Explain(); !strings.Contains(x, "-- parallel") {
			return fmt.Errorf("%s arm runs serially:\n%s", label, x)
		}
	}
	return nil
}
