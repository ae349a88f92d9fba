package plan

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/adl"
	"repro/internal/bench"
	"repro/internal/eval"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/value"
)

// TestVectorizedPlanShapes pins which logical shapes the cost model plans
// onto ColumnScan: σ over an extent where it prices cheapest, never a join,
// never π — π over such a σ is a ProjectOp over the ColumnScan.
func TestVectorizedPlanShapes(t *testing.T) {
	sel := adl.Sel("x",
		adl.CmpE(adl.Lt, adl.Dot(adl.V("x"), "b"), adl.C(value.Int(10))), adl.T("X"))
	equi := adl.EqE(adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "d"))
	semi := adl.JoinE(adl.T("X"), "x", "y", equi, adl.T("Y"))
	semi.Kind = adl.Semi
	inner := adl.JoinE(adl.T("X"), "x", "y", equi, adl.T("Y"))
	setprobe := adl.JoinE(adl.T("X"), "x", "y",
		adl.CmpE(adl.In, adl.SubT(adl.V("y"), "k"), adl.Dot(adl.V("x"), "c")), adl.T("Y"))
	setprobe.Kind = adl.Anti
	residual := adl.JoinE(adl.T("X"), "x", "y",
		adl.AndE(equi, adl.CmpE(adl.Lt, adl.Dot(adl.V("x"), "b"), adl.Dot(adl.V("y"), "e"))),
		adl.T("Y"))
	outer := adl.JoinE(adl.T("X"), "x", "y", equi, adl.T("Y"))
	outer.Kind = adl.Outer
	nestj := adl.JoinE(adl.T("X"), "x", "y", equi, adl.T("Y"))
	nestj.Kind, nestj.As = adl.NestJ, "g"
	setnest := adl.JoinE(adl.T("X"), "x", "y",
		adl.CmpE(adl.In, adl.SubT(adl.V("y"), "k"), adl.Dot(adl.V("x"), "c")), adl.T("Y"))
	setnest.Kind, setnest.As = adl.NestJ, "g"

	var def Config

	op := def.Compile(sel)
	if _, ok := op.(*exec.ColumnScan); !ok {
		t.Fatalf("σ compiled to %T, want *exec.ColumnScan", op)
	}
	out := Explain(op)
	for _, want := range []string{"ColumnScan(X | x: x.b < 10 | cols b", "1/1 typed kernels", "columnar projection"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain misses %q:\n%s", want, out)
		}
	}

	proj := adl.Proj(sel, "a")
	po, ok := def.Compile(proj).(*exec.ProjectOp)
	if !ok {
		t.Fatalf("π over σ compiled to %T, want *exec.ProjectOp", def.Compile(proj))
	}
	if _, ok := po.Child.(*exec.ColumnScan); !ok {
		t.Fatalf("π's child is %T, want *exec.ColumnScan", po.Child)
	}
	if po, ok := def.Compile(adl.Proj(adl.T("X"), "a")).(*exec.ProjectOp); !ok {
		t.Fatalf("π over an extent compiled to %T, want *exec.ProjectOp", po)
	} else if _, ok := po.Child.(*exec.Scan); !ok {
		t.Fatalf("π over an extent reads %T, want *exec.Scan", po.Child)
	}
	// σ over anything but an extent keeps the row Filter.
	if op := def.Compile(adl.Sel("u", adl.CmpE(adl.Lt, adl.Dot(adl.V("u"), "k"), adl.CInt(3)),
		adl.Mu("c", adl.T("X")))); !isSweep(op) || strings.Contains(Explain(op), "ColumnScan") {
		t.Fatalf("σ over μ planned\n%s", Explain(op))
	}

	// A join is never a batch operator: each kind of equi-join is a row join
	// whose σ operand is the ColumnScan, residual conjuncts included, and each
	// set-probe join the set-probe join. An inner join builds on the σ
	// operand, a third of the default extent size.
	over := func(q *adl.Join) *adl.Join {
		j := *q
		j.L = sel
		return &j
	}
	for _, q := range []*adl.Join{semi, inner, outer, nestj, residual} {
		hj, ok := def.Compile(over(q)).(*exec.HashJoin)
		if !ok || hj.Kind != q.Kind {
			t.Fatalf("%v equi-join compiled to %T, want a *exec.HashJoin of that kind", q.Kind, def.Compile(over(q)))
		}
		sigma := hj.L
		if q.Kind == adl.Inner {
			sigma = hj.R
		}
		if _, ok := sigma.(*exec.ColumnScan); !ok {
			t.Fatalf("%v equi-join's σ operand is %T, want *exec.ColumnScan", q.Kind, sigma)
		}
		if (hj.Residual != nil) != (q == residual) || hj.As != q.As {
			t.Fatalf("%v equi-join: residual %v, as %q", q.Kind, hj.Residual, hj.As)
		}
	}
	for _, q := range []*adl.Join{setprobe, setnest} {
		sj, ok := def.Compile(over(q)).(*exec.HashJoin)
		if !ok || sj.In == "" || sj.Kind != q.Kind || sj.As != q.As {
			t.Fatalf("%v set-probe join compiled to %s, want a HashJoin on membership of that kind", q.Kind, Explain(def.Compile(over(q))))
		}
		if _, ok := sj.L.(*exec.ColumnScan); !ok {
			t.Fatalf("%v set-probe join probes %T, want *exec.ColumnScan", q.Kind, sj.L)
		}
	}

	// Priced on large inputs and on small ones, the semijoin probes with a
	// ColumnScan.
	large := Config{Statistics: fakeStatistics{rows: map[string]int{"X": 100000, "Y": 100000}}}
	small := Config{Statistics: fakeStatistics{rows: map[string]int{"X": 10, "Y": 10}}}
	for _, cfg := range []Config{large, small} {
		if hj, ok := cfg.Compile(over(semi)).(*exec.HashJoin); !ok || !holdsColumnScan(hj.L) {
			t.Fatalf("semi join is %s, want a HashJoin probing with a ColumnScan", Explain(cfg.Compile(over(semi))))
		}
	}
	for _, cfg := range []Config{def, large, small} {
		for _, q := range []*adl.Join{semi, inner, outer, nestj, residual, setprobe, setnest} {
			columnScansRunSigma(t, cfg.Compile(q))
			columnScansRunSigma(t, cfg.Compile(over(q)))
		}
	}

	// Costed ColumnScan plans carry the annotation.
	x, y := genTables(rand.New(rand.NewSource(1)))
	costed := Config{Statistics: tableStatistics(x, y)}
	if out := costed.Plan(over(semi)).Explain(); !strings.Contains(out, "-- columnar projection  (rows≈") {
		t.Fatalf("costed ColumnScan plan misses the annotation:\n%s", out)
	}
}

// TestVectorizedFieldIsInert: Config.Vectorized changes no plan. Every
// golden-corpus expression and analytic text explains byte for byte the same
// with it set and unset, with and without
// statistics — and a selective indexed equality plans its IndexScan either
// way, where the flag once forced a full batch scan past it.
func TestVectorizedFieldIsInert(t *testing.T) {
	type planCase struct {
		cfg  Config
		expr adl.Expr
	}
	cases := map[string]planCase{}
	for name, c := range goldenCases() {
		cases[name] = planCase{c.cfg, c.expr}
	}
	st, exprs := analyticStore(t)
	stats := st.Analyze()
	for i, q := range analyticTexts {
		cases[q[0]] = planCase{Config{Statistics: stats}, exprs[i]}
	}
	for name, c := range cases {
		for _, s := range []Statistics{c.cfg.Statistics, nil} {
			cfg := c.cfg
			cfg.Statistics = s
			cfg.Vectorized = false
			off := cfg.Plan(c.expr).Explain()
			cfg.Vectorized = true
			if on := cfg.Plan(c.expr).Explain(); on != off {
				t.Errorf("%s (statistics %v): Vectorized changes the plan:\n--- on ---\n%s--- off ---\n%s",
					name, s != nil, on, off)
			}
		}
	}

	sel := adl.Sel("x", adl.EqE(adl.Dot(adl.V("x"), "a"), adl.CInt(7)), adl.T("X"))
	for _, vec := range []bool{false, true} {
		if pl := (Config{Statistics: lookupStats(), Vectorized: vec}).Plan(sel); !isIndexScan(pl.Root) {
			t.Errorf("Vectorized %v: the selective indexed equality plans\n%s", vec, pl.Explain())
		}
	}
}

func isIndexScan(op exec.Operator) bool {
	_, ok := op.(*exec.IndexScan)
	return ok
}

// holdsColumnScan reports whether a plan runs σ on a ColumnScan.
func holdsColumnScan(op exec.Operator) bool {
	return strings.Contains(Explain(op), "ColumnScan(")
}

// columnScansRunSigma fails unless every ColumnScan of the plan is a σ or α
// of one attribute over an extent: the planner builds one for σ over an
// extent, with a kernel per conjunct, and fuses α[v: v.a] over it or over a
// Scan into one that emits a (Out).
func columnScansRunSigma(t *testing.T, op exec.Operator) {
	t.Helper()
	var walk func(node exec.Operator)
	walk = func(node exec.Operator) {
		if cs, ok := node.(*exec.ColumnScan); ok && (cs.Var == "" || len(cs.Kernels) == 0 && cs.Out == "") {
			t.Fatalf("ColumnScan without a predicate or an attribute to emit:\n%s", Explain(op))
		}
		_, children := describe(node, nil)
		for _, c := range children {
			walk(c)
		}
	}
	walk(op)
}

// randVecQuery draws one logical query over the X/Y differential schema,
// mixing vectorizable shapes with shapes that must fall back to scalar.
func randVecQuery(rng *rand.Rand) adl.Expr {
	xa := func() adl.Expr { return adl.Dot(adl.V("x"), "a") }
	xb := func() adl.Expr { return adl.Dot(adl.V("x"), "b") }
	ops := []adl.CmpOp{adl.Eq, adl.Ne, adl.Lt, adl.Le, adl.Gt, adl.Ge}
	conj := func() adl.Expr {
		op := ops[rng.Intn(len(ops))]
		switch rng.Intn(4) {
		case 0: // x.attr op const
			return adl.CmpE(op, xa(), adl.C(value.Int(int64(rng.Intn(8)))))
		case 1: // const op x.attr (mirrored kernel)
			return adl.CmpE(op, adl.C(value.Int(int64(rng.Intn(20)))), xb())
		case 2: // column vs column
			return adl.CmpE(op, xa(), xb())
		default: // cross-kind constant: Eq/Ne short-circuit, ordered ops
			// would error row-wise, so restrict to the equality pair.
			if op != adl.Eq && op != adl.Ne {
				op = adl.Eq
			}
			return adl.CmpE(op, xa(), adl.C(value.Float(float64(rng.Intn(8)))))
		}
	}
	src := func() adl.Expr {
		if rng.Intn(3) == 0 {
			return adl.T("X")
		}
		pred := conj()
		for i, n := 0, rng.Intn(2); i < n; i++ {
			pred = adl.AndE(pred, conj())
		}
		return adl.Sel("x", pred, adl.T("X"))
	}
	switch rng.Intn(7) {
	case 0:
		return src()
	case 1:
		return adl.Proj(src(), "a")
	case 2, 3:
		j := adl.JoinE(src(), "x", "y",
			adl.EqE(xa(), adl.Dot(adl.V("y"), "d")), adl.T("Y"))
		j.Kind = []adl.JoinKind{adl.Inner, adl.Semi, adl.Anti}[rng.Intn(3)]
		return j
	case 4: // residual conjunct rides along on the hash join
		j := adl.JoinE(src(), "x", "y",
			adl.AndE(adl.EqE(xa(), adl.Dot(adl.V("y"), "d")),
				adl.CmpE(adl.Lt, xb(), adl.Dot(adl.V("y"), "e"))), adl.T("Y"))
		j.Kind = []adl.JoinKind{adl.Inner, adl.Semi, adl.Anti}[rng.Intn(3)]
		return j
	case 5: // membership predicate: the set-probe shape (nestjoin grouping
		// form included)
		j := adl.JoinE(src(), "x", "y",
			adl.CmpE(adl.In, adl.SubT(adl.V("y"), "k"), adl.Dot(adl.V("x"), "c")),
			adl.T("Y"))
		j.Kind = []adl.JoinKind{adl.Semi, adl.Anti, adl.NestJ}[rng.Intn(3)]
		if j.Kind == adl.NestJ {
			j.As = "g"
		}
		return j
	default: // outer join and nestjoin grouping
		j := adl.JoinE(src(), "x", "y",
			adl.EqE(xa(), adl.Dot(adl.V("y"), "d")), adl.T("Y"))
		j.Kind = adl.Outer
		if rng.Intn(2) == 0 {
			j.Kind = adl.NestJ
			j.As = "g"
		}
		return j
	}
}

// TestDifferentialScalarVsVectorized is the batch arm of the differential
// harness: randomized queries, planned without statistics, on their row
// counts and over inflated statistics, return what the reference
// interpreter returns. The cost model picks a ColumnScan for some
// of them, and the test fails if it picks it for none. Run under -race
// in CI.
func TestDifferentialScalarVsVectorized(t *testing.T) {
	queries, batchPlans := 0, 0
	for seed := int64(1); seed <= 14; seed++ {
		rng := rand.New(rand.NewSource(seed + 500))
		x, y := genTables(rng)
		db := storage.NewMemDB("X", x, "Y", y)
		for i := 0; i < 3; i++ {
			q := randVecQuery(rng)
			queries++
			ref, err := eval.EvalSet(q, nil, db)
			if err != nil {
				t.Fatal(err)
			}
			arms := map[string]Config{
				"default":  {},
				"costed":   {Statistics: tableStatistics(x, y)},
				"inflated": {Statistics: inflated{tableStatistics(x, y)}},
			}
			for name, cfg := range arms {
				op := cfg.Compile(q)
				columnScansRunSigma(t, op)
				if holdsColumnScan(op) {
					batchPlans++
				}
				got := collect(t, op, db)
				if !value.Equal(got, ref) {
					t.Fatalf("seed %d query %d (%v): %s diverges from eval:\n got  %v\n want %v",
						seed, i, q, name, got, ref)
				}
			}
		}
	}
	if queries < 25 {
		t.Fatalf("differential harness ran %d queries, want ≥ 25", queries)
	}
	if batchPlans == 0 {
		t.Errorf("no plan of %d queries × 3 arms runs a ColumnScan", queries)
	}
	t.Logf("%d plans of %d queries × 3 arms run a ColumnScan", batchPlans, queries)
}

// TestDifferentialVectorizedMVCC runs the planned queries against the
// reference interpreter over pinned MVCC snapshots while the store keeps
// mutating: the columnar projection reader, which the plans of the σ over
// DELIVERY and of α over a scan read, must respect each snapshot's
// visibility, including deletes and updates pending after the pin.
func TestDifferentialVectorizedMVCC(t *testing.T) {
	st := bench.Generate(bench.Config{Suppliers: 12, Parts: 30, Deliveries: 90, Seed: 7})

	queries := func() []adl.Expr {
		sel := adl.Sel("d",
			adl.CmpE(adl.Lt, adl.Dot(adl.V("d"), "date"), adl.C(value.Date(940115))),
			adl.T("DELIVERY"))
		// α of one attribute over the σ and over an extent: the scan emits
		// the column's stored values and hashes (ColumnScan.Out).
		qs := []adl.Expr{sel, adl.Proj(sel, "date"), adl.MapE("d", adl.Dot(adl.V("d"), "date"), sel),
			adl.MapE("s", adl.Dot(adl.V("s"), "sname"), adl.T("SUPPLIER"))}
		for _, kind := range []adl.JoinKind{adl.Inner, adl.Semi, adl.Anti} {
			j := adl.JoinE(sel, "d", "s",
				adl.EqE(adl.Dot(adl.V("d"), "supplier"), adl.Dot(adl.V("s"), "eid")),
				adl.T("SUPPLIER"))
			j.Kind = kind
			qs = append(qs, j)
		}
		for _, kind := range []adl.JoinKind{adl.Semi, adl.Anti} {
			// The paper's EQ5 shape: p[pid] ∈ s.parts.
			j := adl.JoinE(adl.T("SUPPLIER"), "s", "p",
				adl.CmpE(adl.In, adl.SubT(adl.V("p"), "pid"), adl.Dot(adl.V("s"), "parts")),
				adl.T("PART"))
			j.Kind = kind
			qs = append(qs, j)
		}
		return qs
	}()

	cfgs := []Config{{}, {Statistics: st.Analyze()}}
	batchPlans := 0
	for _, cfg := range cfgs {
		for _, q := range queries {
			if holdsColumnScan(cfg.Compile(q)) {
				batchPlans++
			}
		}
	}
	if batchPlans == 0 {
		t.Fatal("no plan runs a ColumnScan: the columnar reader goes untested")
	}
	check := func(label string, sn *storage.Snapshot) {
		for qi, q := range queries {
			ref, err := eval.EvalSet(q, nil, sn)
			if err != nil {
				t.Fatal(err)
			}
			for ci, cfg := range cfgs {
				got := collect(t, cfg.Compile(q), sn)
				if !value.Equal(got, ref) {
					t.Fatalf("%s query %d: plan %d diverges from eval: got %d rows, want %d",
						label, qi, ci, got.Len(), ref.Len())
				}
			}
		}
	}

	sn0 := st.Snapshot()
	defer sn0.Release()
	check("pinned-before-mutations", sn0)

	// Delete a third of the deliveries, update the dates of another third,
	// and add fresh rows: sn0 must keep answering as before, a fresh pin
	// must see the new state, and both must agree with the interpreter.
	oids := st.OIDs("DELIVERY")
	for i, oid := range oids {
		switch i % 3 {
		case 0:
			if err := st.Delete("DELIVERY", oid); err != nil {
				t.Fatal(err)
			}
		case 1:
			row, err := st.Deref(oid)
			if err != nil {
				t.Fatal(err)
			}
			args := make([]any, 0, 2*row.Len())
			for _, n := range row.Names() {
				if n == "did" {
					continue // Update supplies the id field itself
				}
				v := row.MustGet(n)
				if n == "date" {
					v = value.Date(940131)
				}
				args = append(args, n, v)
			}
			if err := st.Update("DELIVERY", oid, value.NewTuple(args...)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 10; i++ {
		sup := st.OIDs("SUPPLIER")[i]
		if _, err := st.Insert("DELIVERY", value.NewTuple(
			"supplier", sup,
			"supply", value.EmptySet(),
			"date", value.Date(int32(940102+i)))); err != nil {
			t.Fatal(err)
		}
	}

	check("pinned-with-pending-mutations", sn0)
	sn1 := st.Snapshot()
	defer sn1.Release()
	check("fresh-after-mutations", sn1)
}
