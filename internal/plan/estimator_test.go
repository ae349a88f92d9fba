package plan

import (
	"math"
	"testing"

	"repro/internal/adl"
	"repro/internal/stats"
	"repro/internal/value"
)

// histOf builds an equi-depth histogram from int values for estimator tests.
func histOf(vals ...int64) *stats.Histogram {
	vs := make([]value.Value, len(vals))
	for i, v := range vals {
		vs[i] = value.Int(v)
	}
	return stats.NewEquiDepth(vs, 8)
}

// uniformHist builds n values uniform over [0, dom).
func uniformHist(n, dom int) *stats.Histogram {
	vs := make([]value.Value, n)
	for i := range vs {
		vs[i] = value.Int(int64(i % dom))
	}
	return stats.NewEquiDepth(vs, 16)
}

// TestCombineConjNeverExceedsWeakestConjunct is the regression test for the
// old ×3 damping factor in the And case: sel(a)·sel(b)·3 could exceed
// min(sel(a), sel(b)) — e.g. 0.5·0.5·3 = 0.75 — claiming a conjunction
// keeps more rows than its most selective conjunct alone. The exponential
// backoff combinator is bounded by the weakest conjunct by construction.
func TestCombineConjNeverExceedsWeakestConjunct(t *testing.T) {
	cases := [][]float64{
		{0.5, 0.5},           // the old ×3 factor estimated 0.75 here
		{1.0 / 3, 1.0 / 3},   // the default-guess pair the ×3 was tuned for
		{0.9, 0.1, 0.5},      // mixed magnitudes
		{1, 1, 1},            // no-op conjuncts
		{0.001, 0.9, 0.9, 1}, // one sharp conjunct dominates
		{0.25},               // single conjunct is itself
		{0, 0.5},             // impossible conjunct forces zero
		{defaultSelectivity, defaultSelectivity, defaultSelectivity},
	}
	for _, sels := range cases {
		got := combineConj(sels)
		weakest := 1.0
		for _, s := range sels {
			weakest = math.Min(weakest, s)
		}
		if got > weakest+1e-12 {
			t.Errorf("combineConj(%v) = %v exceeds weakest conjunct %v", sels, got, weakest)
		}
		// And it never collapses below the full-independence product — the
		// backoff is a damping, not an extra penalty.
		product := 1.0
		for _, s := range sels {
			product *= s
		}
		if got < product-1e-12 {
			t.Errorf("combineConj(%v) = %v below independence product %v", sels, got, product)
		}
	}
	if got := combineConj(nil); got != 1 {
		t.Errorf("combineConj(nil) = %v, want 1", got)
	}
	if got := combineConj([]float64{0.25}); got != 0.25 {
		t.Errorf("combineConj single = %v, want identity", got)
	}
}

// TestSelectivityConjunctionRegression drives the same guarantee through the
// planner: a σ with several conjuncts must never estimate more rows than the
// same σ with only its most selective conjunct.
func TestSelectivityConjunctionRegression(t *testing.T) {
	st := fakeStatistics{
		rows: map[string]int{"X": 30000},
		ndv:  map[string]int{"X.a": 100, "X.b": 10},
	}
	cfg := Config{Statistics: st}
	sharp := adl.Sel("x", adl.EqE(adl.Dot(adl.V("x"), "a"), adl.CInt(4)), adl.T("X"))
	conj := adl.Sel("x", adl.AndE(
		adl.EqE(adl.Dot(adl.V("x"), "a"), adl.CInt(4)),
		adl.EqE(adl.Dot(adl.V("x"), "b"), adl.CInt(1)),
		adl.CmpE(adl.Lt, adl.Dot(adl.V("x"), "v"), adl.CInt(9))), adl.T("X"))
	sharpPl, conjPl := cfg.Plan(sharp), cfg.Plan(conj)
	sharpEst, ok1 := sharpPl.Estimate(sharpPl.Root)
	conjEst, ok2 := conjPl.Estimate(conjPl.Root)
	if !ok1 || !ok2 {
		t.Fatal("σ plans not annotated")
	}
	if conjEst.Rows > sharpEst.Rows {
		t.Errorf("conjunction estimates %d rows, more than its weakest conjunct's %d",
			conjEst.Rows, sharpEst.Rows)
	}
}

// noHistograms hides the histograms of a statistics feed, so every estimate
// takes the NDV fallback the estimator uses for an attribute without one.
type noHistograms struct{ Statistics }

func (noHistograms) Histogram(string, string) *stats.Histogram { return nil }

// TestEstimatorHistogramEquality: with a histogram, an equality against a
// literal prices by bucket density — exact for a heavy hitter — instead of
// the uniform 1/NDV rule, which returns when the histogram is hidden.
func TestEstimatorHistogramEquality(t *testing.T) {
	// 1000 rows: value 7 in 700 of them, 30 other values sharing the rest.
	vals := make([]int64, 0, 1000)
	for i := 0; i < 700; i++ {
		vals = append(vals, 7)
	}
	for i := 0; i < 300; i++ {
		vals = append(vals, int64(100+i%30))
	}
	st := fakeStatistics{
		rows: map[string]int{"X": 1000},
		ndv:  map[string]int{"X.a": 31},
		hist: map[string]*stats.Histogram{"X.a": histOf(vals...)},
	}
	hot := adl.Sel("x", adl.EqE(adl.Dot(adl.V("x"), "a"), adl.CInt(7)), adl.T("X"))

	pl := Config{Statistics: st}.Plan(hot)
	if est, _ := pl.Estimate(pl.Root); est.Rows != 700 {
		t.Errorf("histogram equality estimate = %d rows, want 700 (exact)", est.Rows)
	}
	pl = Config{Statistics: noHistograms{st}}.Plan(hot)
	if est, _ := pl.Estimate(pl.Root); est.Rows != 32 { // 1000/31, rounded
		t.Errorf("histogram-free equality estimate = %d rows, want 32 (1/NDV)", est.Rows)
	}
	// A value the histogram proves absent estimates zero.
	cold := adl.Sel("x", adl.EqE(adl.Dot(adl.V("x"), "a"), adl.CInt(9999)), adl.T("X"))
	pl = Config{Statistics: st}.Plan(cold)
	if est, _ := pl.Estimate(pl.Root); est.Rows != 0 {
		t.Errorf("absent-value estimate = %d rows, want 0", est.Rows)
	}
	// A non-literal comparison cannot consult the histogram: NDV rule.
	corr := adl.Sel("x", adl.EqE(adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "b")), adl.T("X"))
	pl = Config{Statistics: st}.Plan(corr)
	if est, _ := pl.Estimate(pl.Root); est.Rows != 32 {
		t.Errorf("non-literal equality estimate = %d rows, want 32 (1/NDV)", est.Rows)
	}
}

// TestEstimatorHistogramRange: one- and two-sided ranges interpolate bucket
// fractions instead of the flat defaultSelectivity guess.
func TestEstimatorHistogramRange(t *testing.T) {
	st := fakeStatistics{
		rows: map[string]int{"X": 1000},
		hist: map[string]*stats.Histogram{"X.a": uniformHist(1000, 100)},
	}
	oneSided := adl.Sel("x", adl.CmpE(adl.Lt, adl.Dot(adl.V("x"), "a"), adl.CInt(10)), adl.T("X"))
	pl := Config{Statistics: st}.Plan(oneSided)
	est, _ := pl.Estimate(pl.Root)
	if est.Rows < 50 || est.Rows > 150 {
		t.Errorf("one-sided range estimate = %d rows, want ≈100", est.Rows)
	}
	// The mirrored orientation (const < x.a) estimates the complement.
	mirrored := adl.Sel("x", adl.CmpE(adl.Lt, adl.CInt(89), adl.Dot(adl.V("x"), "a")), adl.T("X"))
	pl = Config{Statistics: st}.Plan(mirrored)
	if est, _ := pl.Estimate(pl.Root); est.Rows < 50 || est.Rows > 150 {
		t.Errorf("mirrored range estimate = %d rows, want ≈100", est.Rows)
	}
	twoSided := adl.Sel("x", adl.AndE(
		adl.CmpE(adl.Ge, adl.Dot(adl.V("x"), "a"), adl.CInt(40)),
		adl.CmpE(adl.Lt, adl.Dot(adl.V("x"), "a"), adl.CInt(50))), adl.T("X"))
	pl = Config{Statistics: st}.Plan(twoSided)
	if est, _ := pl.Estimate(pl.Root); est.Rows < 30 || est.Rows > 170 {
		t.Errorf("two-sided range estimate = %d rows, want ≈100", est.Rows)
	}
	// Without the histogram, the default guess returns.
	pl = Config{Statistics: noHistograms{st}}.Plan(oneSided)
	if est, _ := pl.Estimate(pl.Root); est.Rows != 333 {
		t.Errorf("histogram-free range estimate = %d rows, want 333", est.Rows)
	}
}

// TestEstimatorJoinHistogramIntersection: join-key overlap prices by
// histogram intersection — disjoint key domains estimate (near) zero output
// where the min-NDV containment rule estimates |X|·|Y|/NDV regardless.
func TestEstimatorJoinHistogramIntersection(t *testing.T) {
	disjoint := make([]int64, 0, 1000)
	for i := 0; i < 1000; i++ {
		disjoint = append(disjoint, int64(5000+i%100))
	}
	overlapping := make([]int64, 0, 1000)
	for i := 0; i < 1000; i++ {
		overlapping = append(overlapping, int64(i%100))
	}
	mk := func(yvals []int64) fakeStatistics {
		return fakeStatistics{
			rows: map[string]int{"X": 1000, "Y": 1000},
			ndv:  map[string]int{"X.a": 100, "Y.d": 100},
			hist: map[string]*stats.Histogram{
				"X.a": histOf(overlapping...),
				"Y.d": histOf(yvals...),
			},
		}
	}
	j := equiJoin(adl.Inner)

	pl := Config{Statistics: mk(overlapping)}.Plan(j)
	est, _ := pl.Estimate(pl.Root)
	if est.Rows < 5000 || est.Rows > 20000 {
		t.Errorf("overlapping-domain join estimate = %d rows, want ≈10000", est.Rows)
	}

	pl = Config{Statistics: mk(disjoint)}.Plan(j)
	est, _ = pl.Estimate(pl.Root)
	if est.Rows > 100 {
		t.Errorf("disjoint-domain join estimate = %d rows, want ≈0", est.Rows)
	}
	// The NDV containment rule cannot tell the two apart.
	pl = Config{Statistics: noHistograms{mk(disjoint)}}.Plan(j)
	est, _ = pl.Estimate(pl.Root)
	if est.Rows != 10000 {
		t.Errorf("histogram-free disjoint join estimate = %d rows, want 10000 (containment)", est.Rows)
	}
}
