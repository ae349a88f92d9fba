package plan

import (
	"fmt"
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
// onto batch operators: σ over an extent where the batch pipeline prices
// cheapest, never a join, never π — π over a σ pipeline is a ProjectOp over
// the VecAdapter.
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
	ad, ok := op.(*exec.VecAdapter)
	if !ok {
		t.Fatalf("σ compiled to %T, want *exec.VecAdapter", op)
	}
	if _, ok := ad.Src.(*exec.VecFilter); !ok {
		t.Fatalf("σ pipeline is %T, want *exec.VecFilter", ad.Src)
	}
	out := Explain(op)
	for _, want := range []string{"VecScan(X", "typed kernels", "columnar projection"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain misses %q:\n%s", want, out)
		}
	}

	proj := adl.Proj(sel, "a")
	po, ok := def.Compile(proj).(*exec.ProjectOp)
	if !ok {
		t.Fatalf("π over σ compiled to %T, want *exec.ProjectOp", def.Compile(proj))
	}
	if _, ok := po.Child.(*exec.VecAdapter); !ok {
		t.Fatalf("π's child is %T, want the batch pipeline's *exec.VecAdapter", po.Child)
	}
	if po, ok := def.Compile(adl.Proj(adl.T("X"), "a")).(*exec.ProjectOp); !ok {
		t.Fatalf("π over an extent compiled to %T, want *exec.ProjectOp", po)
	} else if _, ok := po.Child.(*exec.Scan); !ok {
		t.Fatalf("π over an extent reads %T, want *exec.Scan", po.Child)
	}
	// σ over anything but an extent keeps the row Filter.
	if op := def.Compile(adl.Sel("u", adl.CmpE(adl.Lt, adl.Dot(adl.V("u"), "k"), adl.CInt(3)),
		adl.Mu("c", adl.T("X")))); !isSweep(op) || strings.Contains(Explain(op), "Vec") {
		t.Fatalf("σ over μ planned\n%s", Explain(op))
	}

	// A join is never a batch operator: each kind of equi-join is a row join
	// whose σ operand is the batch pipeline ending at a VecAdapter, residual
	// conjuncts included, and each set-probe join the set-probe join. An
	// inner join builds on the σ operand, a third of the default extent size.
	over := func(q *adl.Join) *adl.Join {
		j := *q
		j.L = sel
		return &j
	}
	for _, q := range []*adl.Join{semi, inner, outer, nestj, residual} {
		hj, ok := def.Compile(over(q)).(*exec.HashJoin)
		if !ok || hj.Kind != q.Kind || hj.Partitions > 1 {
			t.Fatalf("%v equi-join compiled to %T, want a serial *exec.HashJoin of that kind", q.Kind, def.Compile(over(q)))
		}
		sigma := hj.L
		if q.Kind == adl.Inner {
			sigma = hj.R
		}
		if _, ok := sigma.(*exec.VecAdapter); !ok {
			t.Fatalf("%v equi-join's σ operand is %T, want the batch pipeline's *exec.VecAdapter", q.Kind, sigma)
		}
		if (hj.Residual != nil) != (q == residual) || hj.As != q.As {
			t.Fatalf("%v equi-join: residual %v, as %q", q.Kind, hj.Residual, hj.As)
		}
	}
	for _, q := range []*adl.Join{setprobe, setnest} {
		sj, ok := def.Compile(over(q)).(*exec.SetProbeJoin)
		if !ok || sj.Kind != q.Kind || sj.As != q.As {
			t.Fatalf("%v set-probe join compiled to %T, want *exec.SetProbeJoin of that kind", q.Kind, def.Compile(over(q)))
		}
		if _, ok := sj.L.(*exec.VecAdapter); !ok {
			t.Fatalf("%v set-probe join probes %T, want the batch pipeline's *exec.VecAdapter", q.Kind, sj.L)
		}
	}

	// Priced on large inputs the equi-join is the partitioned hash join over a
	// morsel-exchanged pipeline; on small ones both stay serial.
	par := Config{Parallelism: 4,
		Statistics: fakeStatistics{rows: map[string]int{"X": 100000, "Y": 100000}}}
	pj, ok := par.Compile(over(semi)).(*exec.HashJoin)
	if !ok || pj.Partitions != 4 {
		t.Fatalf("large semi join is %s, want 4 partitions", Explain(par.Compile(over(semi))))
	}
	if ad, ok := pj.L.(*exec.VecAdapter); !ok {
		t.Fatalf("partitioned join probes %T, want *exec.VecAdapter", pj.L)
	} else if _, ok := ad.Src.(*exec.VecExchange); !ok {
		t.Fatalf("partitioned join's pipeline is %T, want *exec.VecExchange", ad.Src)
	}
	small := Config{Parallelism: 4,
		Statistics: fakeStatistics{rows: map[string]int{"X": 10, "Y": 10}}}
	if parallel(small.Compile(over(semi))) {
		t.Fatalf("small semi join must stay serial:\n%s", Explain(small.Compile(over(semi))))
	}
	for _, cfg := range []Config{def, par, small} {
		for _, q := range []*adl.Join{semi, inner, outer, nestj, residual, setprobe, setnest} {
			noBatchJoin(t, cfg.Compile(q))
			noBatchJoin(t, cfg.Compile(over(q)))
		}
	}

	// Costed batch plans carry the annotation.
	x, y := genTables(rand.New(rand.NewSource(1)))
	costed := Config{Statistics: tableStatistics(x, y)}
	if out := costed.Plan(over(semi)).Explain(); !strings.Contains(out, "-- vectorized") {
		t.Fatalf("costed batch plan misses the annotation:\n%s", out)
	}
}

// TestVectorizedFieldIsInert: Config.Vectorized changes no plan. Every
// golden-corpus expression and analytic text explains byte for byte the same
// with it set and unset — serial and on two workers, with and without
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
			for _, par := range []int{1, 2} {
				cfg := c.cfg
				cfg.Statistics, cfg.Parallelism = s, par
				cfg.Vectorized = false
				off := cfg.Plan(c.expr).Explain()
				cfg.Vectorized = true
				if on := cfg.Plan(c.expr).Explain(); on != off {
					t.Errorf("%s (statistics %v, p%d): Vectorized changes the plan:\n--- on ---\n%s--- off ---\n%s",
						name, s != nil, par, on, off)
				}
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

// holdsVecFilter reports whether a plan runs a batch filter: a VecFilter, or
// the exchange's kernels.
func holdsVecFilter(op exec.Operator) bool {
	x := Explain(op)
	return strings.Contains(x, "VecFilter") || strings.Contains(x, "VecExchange")
}

// noBatchJoin fails unless every batch node of the plan is one of the batch
// layer's: scan, filter, exchange, and the adapter that ends the pipeline.
func noBatchJoin(t *testing.T, op exec.Operator) {
	t.Helper()
	var walk func(node any)
	walk = func(node any) {
		switch node.(type) {
		case *exec.VecScan, *exec.VecFilter, *exec.VecExchange, *exec.VecAdapter:
		default:
			if strings.HasPrefix(fmt.Sprintf("%T", node), "*exec.Vec") {
				t.Fatalf("batch operator %T outside the batch layer:\n%s", node, Explain(op))
			}
		}
		_, children := describe(node)
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
// counts and on two workers over inflated statistics, return what the
// reference interpreter returns. The cost model picks the batch pipeline for
// some of them, and the test fails if it picks it for none. Run under -race
// in CI.
func TestDifferentialScalarVsVectorized(t *testing.T) {
	queries, parallelPlans, batchPlans := 0, 0, 0
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
				"default": {},
				"costed":  {Statistics: tableStatistics(x, y)},
				"parallel": {Parallelism: 4,
					Statistics: inflated{tableStatistics(x, y)}},
			}
			for name, cfg := range arms {
				op := cfg.Compile(q)
				noBatchJoin(t, op)
				if name == "parallel" && parallel(op) {
					parallelPlans++
				}
				if holdsVecFilter(op) {
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
	// Set-probe joins, the nestjoin and empty tables have no parallel form;
	// the rest of the corpus must not have gone serial.
	if parallelPlans < queries/2 {
		t.Errorf("parallel arm planned %d of %d queries parallel", parallelPlans, queries)
	}
	if batchPlans == 0 {
		t.Errorf("no plan of %d queries × 3 arms runs a batch filter", queries)
	}
	t.Logf("parallel arm planned %d of %d queries parallel; %d plans run a batch filter", parallelPlans, queries, batchPlans)
}

// TestDifferentialVectorizedMVCC runs the planned queries against the
// reference interpreter over pinned MVCC snapshots while the store keeps
// mutating: the columnar projection reader, which the plans of the σ over
// DELIVERY read, must respect each snapshot's visibility, including deletes
// and updates pending after the pin.
func TestDifferentialVectorizedMVCC(t *testing.T) {
	st := bench.Generate(bench.Config{Suppliers: 12, Parts: 30, Deliveries: 90, Seed: 7})

	queries := func() []adl.Expr {
		sel := adl.Sel("d",
			adl.CmpE(adl.Lt, adl.Dot(adl.V("d"), "date"), adl.C(value.Date(940115))),
			adl.T("DELIVERY"))
		qs := []adl.Expr{sel, adl.Proj(sel, "date")}
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
			if holdsVecFilter(cfg.Compile(q)) {
				batchPlans++
			}
		}
	}
	if batchPlans == 0 {
		t.Fatal("no plan runs a batch filter: the columnar reader goes untested")
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
