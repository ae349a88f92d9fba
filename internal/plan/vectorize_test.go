package plan

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/adl"
	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/value"
)

func TestSetBatchSize(t *testing.T) {
	var c Config
	for _, bad := range []int{0, -1, -1024} {
		if err := c.SetBatchSize(bad); err == nil {
			t.Fatalf("SetBatchSize(%d) must fail", bad)
		}
	}
	if c.BatchSize != 0 {
		t.Fatalf("rejected sizes must not stick, got %d", c.BatchSize)
	}
	if got := c.batchSize(); got != exec.DefaultBatchSize {
		t.Fatalf("default batch size = %d, want %d", got, exec.DefaultBatchSize)
	}
	if err := c.SetBatchSize(256); err != nil {
		t.Fatalf("SetBatchSize(256): %v", err)
	}
	if got := c.batchSize(); got != 256 {
		t.Fatalf("batch size = %d, want 256", got)
	}
}

// TestVectorizedPlanShapes pins which logical shapes compile to batch
// operators under the flag — σ and π over an extent, never a join — and that
// the flag off never produces a vectorized node.
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

	vec := Config{Vectorized: true}

	op := vec.Compile(sel)
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
	ad, ok = vec.Compile(proj).(*exec.VecAdapter)
	if !ok || len(ad.Project) != 1 {
		t.Fatalf("π compiled to %T (project %v), want VecAdapter[π a]", ad, ad.Project)
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
		hj, ok := vec.Compile(over(q)).(*exec.HashJoin)
		if !ok || hj.Kind != q.Kind || hj.Partitions > 1 {
			t.Fatalf("%v equi-join compiled to %T, want a serial *exec.HashJoin of that kind", q.Kind, vec.Compile(over(q)))
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
		sj, ok := vec.Compile(over(q)).(*exec.SetProbeJoin)
		if !ok || sj.Kind != q.Kind || sj.As != q.As {
			t.Fatalf("%v set-probe join compiled to %T, want *exec.SetProbeJoin of that kind", q.Kind, vec.Compile(over(q)))
		}
		if _, ok := sj.L.(*exec.VecAdapter); !ok {
			t.Fatalf("%v set-probe join probes %T, want the batch pipeline's *exec.VecAdapter", q.Kind, sj.L)
		}
	}

	// Priced on large inputs the equi-join is the partitioned hash join over a
	// morsel-exchanged pipeline; on small ones both stay serial.
	par := Config{Vectorized: true, Parallelism: 4,
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
	small := Config{Vectorized: true, Parallelism: 4,
		Statistics: fakeStatistics{rows: map[string]int{"X": 10, "Y": 10}}}
	if parallel(small.Compile(over(semi))) {
		t.Fatalf("small semi join must stay serial:\n%s", Explain(small.Compile(over(semi))))
	}
	for _, cfg := range []Config{vec, par, small} {
		for _, q := range []*adl.Join{semi, inner, outer, nestj, residual, setprobe, setnest} {
			noBatchJoin(t, cfg.Compile(q))
			noBatchJoin(t, cfg.Compile(over(q)))
		}
	}

	// The flag off must never emit a batch operator.
	for _, q := range []adl.Expr{sel, proj, semi, inner, setprobe, residual, outer, nestj, setnest} {
		if out := Explain(Compile(q)); strings.Contains(out, "Vec") {
			t.Fatalf("vectorized node without the flag:\n%s", out)
		}
	}

	// Costed vectorized plans carry the annotation.
	x, y := genTables(rand.New(rand.NewSource(1)))
	costed := Config{Vectorized: true, Statistics: tableStatistics(x, y)}
	if out := costed.Plan(over(semi)).Explain(); !strings.Contains(out, "-- vectorized") {
		t.Fatalf("costed vectorized plan misses the annotation:\n%s", out)
	}
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

// TestDifferentialScalarVsVectorized is the vectorized arm of the
// differential harness: randomized queries run through the scalar planner
// and through the vectorized planner at several batch sizes, asserting
// identical result sets. Run under -race in CI.
func TestDifferentialScalarVsVectorized(t *testing.T) {
	queries, parallelPlans := 0, 0
	for seed := int64(1); seed <= 14; seed++ {
		rng := rand.New(rand.NewSource(seed + 500))
		x, y := genTables(rng)
		db := storage.NewMemDB("X", x, "Y", y)
		for i := 0; i < 3; i++ {
			q := randVecQuery(rng)
			queries++
			ref := collect(t, Compile(q), db)
			arms := map[string]Config{
				"vec":        {Vectorized: true},
				"vec-batch1": {Vectorized: true, BatchSize: 1},
				"vec-batch7": {Vectorized: true, BatchSize: 7},
				"vec-costed": {Vectorized: true, Statistics: tableStatistics(x, y)},
				"vec-parallel": {Vectorized: true, Parallelism: 4,
					Statistics: inflated{tableStatistics(x, y)}},
			}
			for name, cfg := range arms {
				op := cfg.Compile(q)
				noBatchJoin(t, op)
				if name == "vec-parallel" && parallel(op) {
					parallelPlans++
				}
				got := collect(t, op, db)
				if !value.Equal(got, ref) {
					t.Fatalf("seed %d query %d (%v): %s diverges from scalar:\n got  %v\n want %v",
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
		t.Errorf("vec-parallel planned %d of %d queries parallel", parallelPlans, queries)
	}
	t.Logf("vec-parallel planned %d of %d queries parallel", parallelPlans, queries)
}

// TestDifferentialVectorizedMVCC runs scalar vs vectorized over pinned MVCC
// snapshots while the store keeps mutating: the columnar projection reader
// must respect each snapshot's visibility, including deletes and updates
// pending after the pin.
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

	check := func(label string, sn *storage.Snapshot) {
		for qi, q := range queries {
			ref := collect(t, Compile(q), sn)
			for _, cfg := range []Config{{Vectorized: true}, {Vectorized: true, BatchSize: 3}} {
				got := collect(t, cfg.Compile(q), sn)
				if !value.Equal(got, ref) {
					t.Fatalf("%s query %d: vectorized(batch %d) diverges: got %d rows, want %d",
						label, qi, cfg.BatchSize, got.Len(), ref.Len())
				}
			}
		}
	}

	sn0 := st.Snapshot()
	defer sn0.Release()
	check("pinned-before-mutations", sn0)

	// Delete a third of the deliveries, update the dates of another third,
	// and add fresh rows: sn0 must keep answering as before, a fresh pin
	// must see the new state, and both must agree scalar vs vectorized.
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
