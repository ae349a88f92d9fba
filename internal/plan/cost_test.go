package plan

import (
	"strings"
	"testing"

	"repro/internal/adl"
	"repro/internal/bench"
	"repro/internal/eval"
	"repro/internal/exec"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/value"
)

// fakeStatistics is a hand-built Statistics feed for planner tests.
type fakeStatistics struct {
	rows map[string]int
	ndv  map[string]int // keyed "EXTENT.attr"
	avg  map[string]float64
	idx  map[string]string           // keyed "EXTENT.attr" → "hash"/"ordered"
	hist map[string]*stats.Histogram // keyed "EXTENT.attr"
}

func (f fakeStatistics) RowCount(extent string) int {
	if n, ok := f.rows[extent]; ok {
		return n
	}
	return -1
}
func (f fakeStatistics) DistinctValues(extent, attr string) int {
	return f.ndv[extent+"."+attr]
}
func (f fakeStatistics) AvgSetSize(extent, attr string) float64 {
	return f.avg[extent+"."+attr]
}
func (f fakeStatistics) IndexKind(extent, attr string) string {
	return f.idx[extent+"."+attr]
}
func (f fakeStatistics) Histogram(extent, attr string) *stats.Histogram {
	return f.hist[extent+"."+attr]
}

func equiJoin(kind adl.JoinKind) *adl.Join {
	j := adl.JoinE(adl.T("X"), "x", "y",
		adl.EqE(adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "d")), adl.T("Y"))
	j.Kind = kind
	if kind == adl.NestJ {
		j.As = "g"
	}
	return j
}

// TestCostBasedSwapsBuildSide: an inner equi-join with a small left and a
// large right operand builds the hash table on the smaller (left) side by
// swapping the operands — a choice only the row counts can justify.
func TestCostBasedSwapsBuildSide(t *testing.T) {
	stats := fakeStatistics{rows: map[string]int{"X": 50, "Y": 2000}}
	pl := Config{Statistics: stats}.Plan(equiJoin(adl.Inner))
	hj, ok := pl.Root.(*exec.HashJoin)
	if !ok {
		t.Fatalf("expected HashJoin, got %T:\n%s", pl.Root, pl.Explain())
	}
	// Swapped: the (large) Y scan is now the probe (left) child.
	if scan, ok := hj.L.(*exec.Scan); !ok || scan.Table != "Y" {
		t.Errorf("build side not swapped; probe child is %v", hj.L)
	}
	e, ok := pl.Estimate(pl.Root)
	if !ok || e.Note != "build side swapped" {
		t.Errorf("estimate note = %+v, want build side swapped", e)
	}
	if !strings.Contains(pl.Explain(), "build side swapped") {
		t.Errorf("Explain does not show the swap:\n%s", pl.Explain())
	}
}

// TestCostBasedNeverSwapsAsymmetricKinds: semi/anti/nestjoin results depend
// on operand roles, so the swap candidates must not apply.
func TestCostBasedNeverSwapsAsymmetricKinds(t *testing.T) {
	stats := fakeStatistics{rows: map[string]int{"X": 50, "Y": 2000}}
	for _, kind := range []adl.JoinKind{adl.Semi, adl.Anti, adl.NestJ} {
		op := Config{Statistics: stats}.Compile(equiJoin(kind))
		hj, ok := op.(*exec.HashJoin)
		if !ok {
			t.Fatalf("kind %v: unexpected operator %T", kind, op)
		}
		if scan, ok := hj.L.(*exec.Scan); !ok || scan.Table != "X" {
			t.Errorf("kind %v: left operand swapped to %v", kind, hj.L)
		}
	}
}

// TestCostBasedSwapCorrectness: the swapped inner hash join returns the same
// result set as the default orientation (tuple equality ignores attribute
// order).
func TestCostBasedSwapCorrectness(t *testing.T) {
	st := bench.Generate(bench.Config{Suppliers: 40, Parts: 10, Fanout: 2,
		Deliveries: 400, Seed: 7})
	j := adl.JoinE(adl.T("SUPPLIER"), "s", "d",
		adl.EqE(adl.Dot(adl.V("s"), "eid"), adl.Dot(adl.V("d"), "supplier")),
		adl.T("DELIVERY"))

	// Without statistics both extents price at defaultRows: no side is
	// smaller, so the plan keeps the written orientation.
	defaultOp := Compile(j)
	if hj, ok := defaultOp.(*exec.HashJoin); !ok {
		t.Fatalf("plan without statistics should be HashJoin, got %T", defaultOp)
	} else if scan, ok := hj.L.(*exec.Scan); !ok || scan.Table != "SUPPLIER" {
		t.Fatalf("plan without statistics unexpectedly swapped")
	}

	stats := st.Analyze()
	costedPl := Config{Statistics: stats}.Plan(j)
	hj, ok := costedPl.Root.(*exec.HashJoin)
	if !ok {
		t.Fatalf("cost-based plan is %T:\n%s", costedPl.Root, costedPl.Explain())
	}
	if scan, ok := hj.L.(*exec.Scan); !ok || scan.Table != "DELIVERY" {
		t.Fatalf("cost-based plan should swap to build on SUPPLIER:\n%s", costedPl.Explain())
	}

	want, err := exec.Collect(defaultOp, &exec.Ctx{DB: st})
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Collect(costedPl.Root, &exec.Ctx{DB: st})
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, want) {
		t.Fatalf("swapped join diverges:\n got  %v\n want %v", got, want)
	}
}

// TestCostBasedResidualSurvivesSwap: a swapped inner join re-binds the
// residual predicate's variables to the exchanged operand roles.
func TestCostBasedResidualSurvivesSwap(t *testing.T) {
	st := bench.Generate(bench.Config{Suppliers: 30, Parts: 10, Fanout: 2,
		Deliveries: 300, Seed: 11})
	on := adl.AndE(
		adl.EqE(adl.Dot(adl.V("s"), "eid"), adl.Dot(adl.V("d"), "supplier")),
		adl.CmpE(adl.Lt, adl.Dot(adl.V("d"), "date"), adl.C(value.Date(940110))))
	j := adl.JoinE(adl.T("SUPPLIER"), "s", "d", on, adl.T("DELIVERY"))

	want, err := eval.EvalSet(j, nil, st)
	if err != nil {
		t.Fatal(err)
	}
	pl := Config{Statistics: st.Analyze()}.Plan(j)
	hj, ok := pl.Root.(*exec.HashJoin)
	if !ok || hj.Residual == nil {
		t.Fatalf("expected HashJoin with residual, got %T:\n%s", pl.Root, pl.Explain())
	}
	got, err := exec.Collect(pl.Root, &exec.Ctx{DB: st})
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, want) {
		t.Fatalf("residual mishandled:\n got  %v\n want %v", got, want)
	}
}

// TestCostBasedMembershipShape: the membership predicate still plans the
// set-probe join under the cost model, now with an annotation.
func TestCostBasedMembershipShape(t *testing.T) {
	st := bench.Generate(bench.Config{Suppliers: 30, Parts: 40, Seed: 5})
	j := adl.SemiJoin(adl.T("SUPPLIER"), "s", "p",
		adl.CmpE(adl.In, adl.SubT(adl.V("p"), "pid"), adl.Dot(adl.V("s"), "parts")),
		adl.T("PART"))
	pl := Config{Statistics: st.Analyze()}.Plan(j)
	if hj, ok := pl.Root.(*exec.HashJoin); !ok || hj.In != "parts" {
		t.Fatalf("membership shape should plan a HashJoin on membership in .parts, got\n%s", pl.Explain())
	}
	e, ok := pl.Estimate(pl.Root)
	if !ok || e.Rows <= 0 || e.Cost <= 0 {
		t.Errorf("set-probe join not annotated: %+v", e)
	}
}

// TestPlanExplainAnnotations: every planned node renders rows and cost, and
// the package-level Explain renders the same tree without them.
func TestPlanExplainAnnotations(t *testing.T) {
	stats := fakeStatistics{rows: map[string]int{"X": 100, "Y": 100},
		ndv: map[string]int{"X.a": 50, "Y.d": 50}}
	j := equiJoin(adl.Inner)
	costed := Config{Statistics: stats}.Plan(j)
	out := costed.Explain()
	for _, want := range []string{"rows≈", "cost≈", "Scan(X)", "Scan(Y)"} {
		if !strings.Contains(out, want) {
			t.Errorf("annotated Explain missing %q:\n%s", want, out)
		}
	}
	if s := Explain(costed.Root); strings.Contains(s, "rows≈") || !strings.Contains(s, "Scan(X)") {
		t.Errorf("Explain should render the bare tree:\n%s", s)
	}
}

// TestCostBasedUsesNDVForJoinEstimates: distinct-value counts shrink the
// estimated join output.
func TestCostBasedUsesNDVForJoinEstimates(t *testing.T) {
	manyDup := fakeStatistics{rows: map[string]int{"X": 1000, "Y": 1000},
		ndv: map[string]int{"X.a": 10, "Y.d": 10}}
	unique := fakeStatistics{rows: map[string]int{"X": 1000, "Y": 1000},
		ndv: map[string]int{"X.a": 1000, "Y.d": 1000}}
	plDup := Config{Statistics: manyDup}.Plan(equiJoin(adl.Inner))
	plUniq := Config{Statistics: unique}.Plan(equiJoin(adl.Inner))
	eDup, ok1 := plDup.Estimate(plDup.Root)
	eUniq, ok2 := plUniq.Estimate(plUniq.Root)
	if !ok1 || !ok2 {
		t.Fatal("join estimates missing")
	}
	if eDup.Rows != 100000 {
		t.Errorf("10-NDV join estimate = %d rows, want 100000", eDup.Rows)
	}
	if eUniq.Rows != 1000 {
		t.Errorf("unique-key join estimate = %d rows, want 1000", eUniq.Rows)
	}
}

// TestCostBasedFallsBackWithoutRowCounts: an extent the statistics have no
// row count for prices at defaultRows, and the plan over it is annotated like
// any other.
func TestCostBasedFallsBackWithoutRowCounts(t *testing.T) {
	stats := fakeStatistics{rows: map[string]int{"X": 100}} // Y unknown
	pl := Config{Statistics: stats}.Plan(equiJoin(adl.Inner))
	hj, ok := pl.Root.(*exec.HashJoin)
	if !ok {
		t.Fatalf("equi join over an unknown extent should plan a HashJoin, got %T", pl.Root)
	}
	// Y (1000 rows) is the larger side: the build swaps onto X.
	if scan, ok := hj.L.(*exec.Scan); !ok || scan.Table != "Y" {
		t.Errorf("build side not swapped onto the 100-row X:\n%s", pl.Explain())
	}
	for _, op := range []exec.Operator{hj.L, pl.Root} {
		if _, ok := pl.Estimate(op); !ok {
			t.Errorf("node %T not annotated:\n%s", op, pl.Explain())
		}
	}
	if e, _ := pl.Estimate(hj.L); e.Rows != defaultRows {
		t.Errorf("unknown extent estimated at %d rows, want defaultRows (%d)", e.Rows, defaultRows)
	}
}

// TestCostBasedColumnScanFilter: σ over an extent, large or small, goes to a
// ColumnScan; σ over a computed input (μ of an extent) is a Filter at any
// size.
func TestCostBasedColumnScanFilter(t *testing.T) {
	overMu := adl.Sel("u", adl.CmpE(adl.Lt, adl.Dot(adl.V("u"), "k"), adl.C(value.Int(3))), adl.Mu("c", adl.T("X")))
	overX := adl.Sel("x", adl.CmpE(adl.Lt, adl.Dot(adl.V("x"), "a"), adl.C(value.Int(3))), adl.T("X"))
	big := Config{Statistics: fakeStatistics{rows: map[string]int{"X": 50000}}}
	if _, ok := big.Compile(overMu).(*exec.Filter); !ok {
		t.Errorf("large σ over μ should plan a Filter, got\n%s", Explain(big.Compile(overMu)))
	}
	if _, ok := big.Compile(overX).(*exec.ColumnScan); !ok {
		t.Errorf("large σ over an extent should cost out to a ColumnScan, got\n%s", Explain(big.Compile(overX)))
	}
	small := Config{Statistics: fakeStatistics{rows: map[string]int{"X": 100}}}
	if _, ok := small.Compile(overMu).(*exec.Filter); !ok {
		t.Errorf("small σ over μ should plan a Filter, got\n%s", Explain(small.Compile(overMu)))
	}
	if _, ok := small.Compile(overX).(*exec.ColumnScan); !ok {
		t.Errorf("small σ over an extent should cost out to a ColumnScan, got\n%s", Explain(small.Compile(overX)))
	}
}

// TestBatchFallbackPricedAsInterpreter: a conjunct with no typed kernel
// runs the interpreter row by row inside ColumnScan, so its estimate carries
// rows·cEval for it, as Filter's does.
func TestBatchFallbackPricedAsInterpreter(t *testing.T) {
	const rows = 4000
	// x[a] is a unary tuple, not the attribute's value: no typed kernel.
	fallback := adl.Sel("x", adl.EqE(adl.SubT(adl.V("x"), "a"), adl.Tup("a", adl.CInt(3))), adl.T("X"))
	p := Config{Statistics: fakeStatistics{rows: map[string]int{"X": rows}}, Vectorized: true}.Plan(fallback)
	var scan exec.Operator
	var walk func(op exec.Operator)
	walk = func(op exec.Operator) {
		if cs, ok := op.(*exec.ColumnScan); ok {
			scan = cs
		}
		_, children := describe(op, nil)
		for _, c := range children {
			walk(c)
		}
	}
	walk(p.Root)
	if scan == nil {
		t.Fatalf("want a ColumnScan, got\n%s", p.Explain())
	}
	if !strings.Contains(p.Explain(), "0/1 typed kernels") {
		t.Fatalf("want one fallback kernel, got\n%s", p.Explain())
	}
	if est, _ := p.Estimate(scan); est.Cost < rows*cEval {
		t.Errorf("ColumnScan estimate %.0f leaves out the interpreter's rows·cEval = %.0f:\n%s", est.Cost, rows*cEval, p.Explain())
	}
}

// TestSelectivityBoundToIterationVariable: the 1/NDV equality rule must only
// fire for attributes read off the σ's own iteration variable. The old code
// matched a field off *any* variable, so a correlated predicate x.a = y.b
// (y free) looked up DistinctValues(X, "b") — the wrong extent's statistics
// whenever an attribute name collides across extents.
func TestSelectivityBoundToIterationVariable(t *testing.T) {
	stats := fakeStatistics{
		rows: map[string]int{"X": 30000},
		// X has an attribute named "b" (NDV 100) — the name collision that
		// used to poison the estimate. X.a is uncollected.
		ndv: map[string]int{"X.b": 100},
	}
	cfg := Config{Statistics: stats}

	// Correlated equality over a foreign variable: the default guess, not
	// 1/NDV of the colliding local attribute (which estimated 300 rows).
	corr := adl.Sel("x",
		adl.EqE(adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "b")), adl.T("X"))
	pl := cfg.Plan(corr)
	est, ok := pl.Estimate(pl.Root)
	if !ok {
		t.Fatal("σ over collected extent must be annotated")
	}
	if want := int64(10000); est.Rows != want { // 30000 * 1/3
		t.Errorf("correlated σ estimate = %d rows, want %d (default guess)", est.Rows, want)
	}

	// The rule still fires for the iteration variable's own attribute.
	local := adl.Sel("x", adl.EqE(adl.Dot(adl.V("x"), "b"), adl.CInt(4)), adl.T("X"))
	pl = cfg.Plan(local)
	if est, _ := pl.Estimate(pl.Root); est.Rows != 300 { // 30000 / 100
		t.Errorf("local σ estimate = %d rows, want 300 (1/NDV)", est.Rows)
	}
	// Subscript form binds the same way.
	sub := adl.Sel("x", adl.EqE(adl.SubT(adl.V("x"), "b"), adl.CInt(4)), adl.T("X"))
	pl = cfg.Plan(sub)
	if est, _ := pl.Estimate(pl.Root); est.Rows != 300 {
		t.Errorf("subscript σ estimate = %d rows, want 300 (1/NDV)", est.Rows)
	}
}

// TestUnknownExtentSizeIsNotEmpty: DBStats.RowCount reports -1 for extents
// that were never analyzed, and the cost model then prices them at
// defaultRows. A 0 would make an unknown extent look empty, and a join pairing
// one huge analyzed extent with an unknown one would be priced as if it
// emitted nothing.
func TestUnknownExtentSizeIsNotEmpty(t *testing.T) {
	stats := &storage.DBStats{Tables: map[string]storage.TableStats{
		"X": {Rows: 100000},
	}}
	if got := stats.RowCount("Y"); got != -1 {
		t.Fatalf("RowCount of unanalyzed extent = %d, want -1", got)
	}
	pl := Config{Statistics: stats}.Plan(equiJoin(adl.Inner))
	hj, ok := pl.Root.(*exec.HashJoin)
	if !ok {
		t.Fatalf("join with an unknown extent should plan a HashJoin, got\n%s", pl.Explain())
	}
	scanY, _ := hj.R.(*exec.Scan)
	if scanY == nil || scanY.Table != "Y" {
		t.Fatalf("the unknown extent should be the build side:\n%s", pl.Explain())
	}
	if e, ok := pl.Estimate(scanY); !ok || e.Rows != defaultRows {
		t.Errorf("unknown extent estimated at %+v, want %d rows", e, defaultRows)
	}
}
