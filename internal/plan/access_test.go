package plan

import (
	"strings"
	"testing"

	"repro/internal/adl"
	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/value"
)

// lookupStats models a small filtered side and a large indexed inner side.
func lookupStats() fakeStatistics {
	return fakeStatistics{
		rows: map[string]int{"X": 2000, "Y": 100000},
		ndv:  map[string]int{"X.a": 1000, "X.v": 20, "Y.d": 50000},
		idx:  map[string]string{"X.a": "ordered", "Y.d": "hash"},
	}
}

func TestIndexScanChosenForSelectiveEquality(t *testing.T) {
	stats := lookupStats()
	sel := adl.Sel("x", adl.EqE(adl.Dot(adl.V("x"), "a"), adl.CInt(7)), adl.T("X"))

	pl := Config{Statistics: stats}.Plan(sel)
	idx, ok := pl.Root.(*exec.IndexScan)
	if !ok {
		t.Fatalf("selective indexed equality should plan IndexScan, got:\n%s", pl.Explain())
	}
	if idx.Table != "X" || idx.Attr != "a" || idx.Eq == nil {
		t.Fatalf("IndexScan mis-built: %+v", idx)
	}
	if est, ok := pl.Estimate(pl.Root); !ok || est.Rows != 2 {
		t.Errorf("IndexScan estimate = %+v, want rows 2 (2000/1000)", est)
	}

	// The same σ with indexes disabled stays a filtered scan.
	op := Config{Statistics: stats, NoIndexes: true}.Compile(sel)
	if _, ok := op.(*exec.IndexScan); ok {
		t.Fatal("NoIndexes must suppress the index access path")
	}
	// And without an index on the attribute, so does planning on v.
	selV := adl.Sel("x", adl.EqE(adl.Dot(adl.V("x"), "v"), adl.CInt(7)), adl.T("X"))
	if op := (Config{Statistics: stats}).Compile(selV); !isSweep(op) {
		t.Fatalf("unindexed equality should stay a scan+filter, got %T", op)
	}
}

// isSweep reports whether a σ reads its whole input: a Filter or a
// ColumnScan.
func isSweep(op exec.Operator) bool {
	switch op.(type) {
	case *exec.Filter, *exec.ColumnScan:
		return true
	}
	return false
}

func TestIndexScanRangeNeedsOrderedIndex(t *testing.T) {
	st := lookupStats()
	// x.a has an ordered index: a range σ uses it (constant on either side).
	// Its histogram prices x.a < 10 at 1 %: at the default one third of the
	// rows, the probe would fetch more than the batch scan reads.
	st.hist = map[string]*stats.Histogram{"X.a": uniformHist(2000, 1000)}
	for _, pred := range []adl.Expr{
		adl.CmpE(adl.Lt, adl.Dot(adl.V("x"), "a"), adl.CInt(10)),
		adl.CmpE(adl.Ge, adl.CInt(10), adl.Dot(adl.V("x"), "a")),
	} {
		pl := Config{Statistics: st}.Plan(adl.Sel("x", pred, adl.T("X")))
		idx, ok := pl.Root.(*exec.IndexScan)
		if !ok {
			t.Fatalf("range over ordered index should plan IndexScan, got:\n%s", pl.Explain())
		}
		if idx.Eq != nil || (idx.Lo == nil && idx.Hi == nil) {
			t.Fatalf("range IndexScan mis-built: %+v", idx)
		}
	}
	// Y.d is hash-indexed: a range σ cannot use it.
	rangeY := adl.Sel("y", adl.CmpE(adl.Lt, adl.Dot(adl.V("y"), "d"), adl.CInt(10)), adl.T("Y"))
	if op := (Config{Statistics: st}).Compile(rangeY); !isSweep(op) {
		t.Fatalf("range over hash index should stay a filtered scan, got %T", op)
	}
}

// TestIndexScanMergesTwoSidedRange: a lower and an upper bound on the same
// ordered-indexed attribute merge into one two-sided probe with no residual
// Filter, instead of a half-open probe that fetches and then discards.
func TestIndexScanMergesTwoSidedRange(t *testing.T) {
	stats := lookupStats()
	sel := adl.Sel("x", adl.AndE(
		adl.CmpE(adl.Ge, adl.Dot(adl.V("x"), "a"), adl.CInt(10)),
		adl.CmpE(adl.Lt, adl.Dot(adl.V("x"), "a"), adl.CInt(20))), adl.T("X"))
	pl := Config{Statistics: stats}.Plan(sel)
	idx, ok := pl.Root.(*exec.IndexScan)
	if !ok {
		t.Fatalf("two-sided range should plan a bare IndexScan, got:\n%s", pl.Explain())
	}
	if idx.Lo == nil || !idx.LoIncl || idx.Hi == nil || idx.HiIncl {
		t.Fatalf("bounds mis-merged: %+v", idx)
	}
}

// TestTwoSidedRangeNotPricedAsUnknownPredicate is the regression test for
// the old access-path pricing: a merged two-sided range probe kept the
// one-sided conjunct's rows·defaultSelectivity guess — the same estimate as
// a predicate the model cannot see at all. The estimator now re-prices the
// merged probe: with a histogram the bounds interpolate to the actual
// fraction, and even without one the two bounds must price strictly below
// the flat one-third guess.
func TestTwoSidedRangeNotPricedAsUnknownPredicate(t *testing.T) {
	twoSided := adl.Sel("x", adl.AndE(
		adl.CmpE(adl.Ge, adl.Dot(adl.V("x"), "a"), adl.CInt(40)),
		adl.CmpE(adl.Lt, adl.Dot(adl.V("x"), "a"), adl.CInt(50))), adl.T("X"))

	// Without histograms: strictly below rows·defaultSelectivity.
	noHist := lookupStats()
	pl := Config{Statistics: noHist}.Plan(twoSided)
	idx, ok := pl.Root.(*exec.IndexScan)
	if !ok {
		t.Fatalf("two-sided range should plan a bare IndexScan, got:\n%s", pl.Explain())
	}
	est, ok := pl.Estimate(idx)
	if !ok {
		t.Fatal("IndexScan not annotated")
	}
	flatGuess := 2000 * defaultSelectivity
	if float64(est.Rows) >= flatGuess {
		t.Errorf("merged range priced at %d rows — not below the %.0f unknown-predicate guess",
			est.Rows, flatGuess)
	}

	// With a histogram: the interpolated fraction of the actual bounds.
	// X.a uniform over [0,1000) → [40,50) holds ≈1% of 2000 rows.
	withHist := lookupStats()
	withHist.hist = map[string]*stats.Histogram{"X.a": uniformHist(2000, 1000)}
	pl = Config{Statistics: withHist}.Plan(twoSided)
	idx, ok = pl.Root.(*exec.IndexScan)
	if !ok {
		t.Fatalf("two-sided range should plan a bare IndexScan, got:\n%s", pl.Explain())
	}
	est, _ = pl.Estimate(idx)
	if est.Rows < 5 || est.Rows > 60 {
		t.Errorf("histogram-priced merged range = %d rows, want ≈20 (1%% of 2000)", est.Rows)
	}
}

func TestIndexScanResidualFilter(t *testing.T) {
	stats := lookupStats()
	sel := adl.Sel("x", adl.AndE(
		adl.EqE(adl.Dot(adl.V("x"), "a"), adl.CInt(7)),
		adl.CmpE(adl.Lt, adl.Dot(adl.V("x"), "v"), adl.CInt(5))), adl.T("X"))
	pl := Config{Statistics: stats}.Plan(sel)
	f, ok := pl.Root.(*exec.Filter)
	if !ok {
		t.Fatalf("residual conjunct should wrap the IndexScan in a Filter, got:\n%s", pl.Explain())
	}
	if _, ok := f.Child.(*exec.IndexScan); !ok {
		t.Fatalf("Filter child is %T, want IndexScan", f.Child)
	}
}

// TestIndexScanNotUsedForCorrelatedKey: a key with free variables cannot be
// evaluated at Open, so the index path must not fire.
func TestIndexScanNotUsedForCorrelatedKey(t *testing.T) {
	stats := lookupStats()
	sel := adl.Sel("x", adl.EqE(adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("z"), "b")), adl.T("X"))
	if op := (Config{Statistics: stats}).Compile(sel); !isSweep(op) {
		t.Fatalf("correlated equality must stay a filtered scan, got %T", op)
	}
}

func TestIndexNLJoinChosenForSelectiveLookup(t *testing.T) {
	stats := lookupStats()
	// σ(x.a = 7)(X) ⋈ Y on x.a = y.d — a selective outer against a large
	// indexed inner: probing Y.d per outer row beats hashing all of Y.
	sel := adl.Sel("x", adl.EqE(adl.Dot(adl.V("x"), "a"), adl.CInt(7)), adl.T("X"))
	j := adl.JoinE(sel, "x", "y",
		adl.EqE(adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "d")), adl.T("Y"))

	pl := Config{Statistics: stats}.Plan(j)
	idx, ok := pl.Root.(*exec.IndexNLJoin)
	if !ok {
		t.Fatalf("selective lookup join should plan IndexNLJoin, got:\n%s", pl.Explain())
	}
	if idx.Table != "Y" || idx.Attr != "d" {
		t.Fatalf("IndexNLJoin probes %s.%s, want Y.d", idx.Table, idx.Attr)
	}
	if est, ok := pl.Estimate(pl.Root); !ok || !strings.Contains(est.Note, "index probe into Y.d") {
		t.Errorf("estimate note = %+v, want index probe note", est)
	}
	if op := (Config{Statistics: stats, NoIndexes: true}).Compile(j); isIndexOp(op) {
		t.Fatal("NoIndexes must suppress the index-nested-loop join")
	}
}

func isIndexOp(op exec.Operator) bool {
	switch op.(type) {
	case *exec.IndexNLJoin, *exec.IndexScan:
		return true
	}
	return false
}

// TestIndexNLJoinSwappedOrientation: the small side may be the right
// operand; inner joins probe the left extent's index with right rows.
func TestIndexNLJoinSwappedOrientation(t *testing.T) {
	stats := fakeStatistics{
		rows: map[string]int{"X": 100000, "Y": 40},
		ndv:  map[string]int{"X.a": 50000, "Y.d": 40},
		idx:  map[string]string{"X.a": "hash"},
	}
	j := adl.JoinE(adl.T("X"), "x", "y",
		adl.EqE(adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "d")), adl.T("Y"))
	pl := Config{Statistics: stats}.Plan(j)
	idx, ok := pl.Root.(*exec.IndexNLJoin)
	if !ok {
		t.Fatalf("swapped lookup join should plan IndexNLJoin, got:\n%s", pl.Explain())
	}
	if idx.Table != "X" || idx.Attr != "a" {
		t.Fatalf("IndexNLJoin probes %s.%s, want X.a", idx.Table, idx.Attr)
	}
}

// TestIndexNLJoinNotUsedOverFilteredInner: an index covers the whole
// extent, so a filtered inner side must not be probed through it — the
// probe would resurrect rows the selection removed.
func TestIndexNLJoinNotUsedOverFilteredInner(t *testing.T) {
	stats := fakeStatistics{
		rows: map[string]int{"X": 40, "Y": 100000},
		ndv:  map[string]int{"X.a": 40, "Y.d": 50000, "Y.v": 2},
		idx:  map[string]string{"Y.d": "hash"},
	}
	selY := adl.Sel("y", adl.EqE(adl.Dot(adl.V("y"), "v"), adl.CInt(1)), adl.T("Y"))
	j := adl.JoinE(adl.T("X"), "x", "y",
		adl.EqE(adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "d")), selY)
	if op := (Config{Statistics: stats}).Compile(j); isIndexOp(op) {
		t.Fatalf("filtered inner must not be index-probed, got %T", op)
	}
}

// TestIndexedPlanEndToEnd: a real store, ANALYZE with indexes, and the
// chosen index plan returns exactly the no-index plan's result.
func TestIndexedPlanEndToEnd(t *testing.T) {
	st := bench.Generate(bench.Config{Suppliers: 300, Parts: 10, Fanout: 2,
		Deliveries: 3000, Seed: 11})
	if err := st.CreateIndex("SUPPLIER", "sname", storage.OrderedIndex); err != nil {
		t.Fatal(err)
	}
	if err := st.EnsureIndexes("DELIVERY", "supplier"); err != nil {
		t.Fatal(err)
	}
	stats := st.Analyze()
	sel := adl.Sel("s", adl.EqE(adl.Dot(adl.V("s"), "sname"), adl.CStr("supplier-42")),
		adl.T("SUPPLIER"))
	q := adl.JoinE(sel, "s", "d",
		adl.EqE(adl.Dot(adl.V("s"), "eid"), adl.Dot(adl.V("d"), "supplier")),
		adl.T("DELIVERY"))

	indexed := Config{Statistics: stats}.Plan(q)
	if _, ok := indexed.Root.(*exec.IndexNLJoin); !ok {
		t.Fatalf("collected statistics with indexes should choose IndexNLJoin, got:\n%s",
			indexed.Explain())
	}
	baseline := Config{Statistics: stats, NoIndexes: true}.Plan(q)
	got := collect(t, indexed.Root, st)
	want := collect(t, baseline.Root, st)
	if !value.Equal(got, want) {
		t.Fatalf("indexed plan diverges: %d vs %d rows", got.Len(), want.Len())
	}
	if got.Len() == 0 {
		t.Fatal("fixture returned no rows; workload degenerate")
	}
}
