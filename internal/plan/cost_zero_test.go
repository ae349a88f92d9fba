package plan

import (
	"math"
	"testing"

	"repro/internal/adl"
	"repro/internal/schema"
	"repro/internal/storage"
)

// Regression coverage for the zero-row guards: planning against an empty
// store (or statistics reporting empty extents) must never produce NaN or
// infinite cost estimates — a poisoned float comparison would silently
// derail every strategy choice above it.

// assertFiniteEstimates walks a plan's annotations.
func assertFiniteEstimates(t *testing.T, pl *Plan) {
	t.Helper()
	for op, e := range pl.est {
		if math.IsNaN(e.Cost) || math.IsInf(e.Cost, 0) {
			t.Errorf("%T: non-finite cost %v in:\n%s", op, e.Cost, pl.Explain())
		}
		if e.Cost < 0 {
			t.Errorf("%T: negative cost %v", op, e.Cost)
		}
		if e.Rows < 0 {
			t.Errorf("%T: negative row estimate %d", op, e.Rows)
		}
	}
}

// zeroQueries is the plan-shape gauntlet: every join kind, the membership
// shape, scalar operators over joins, and an inner-join chain.
func zeroQueries() []adl.Expr {
	equi := func(kind adl.JoinKind) adl.Expr {
		j := adl.JoinE(adl.T("SUPPLIER"), "s", "d",
			adl.EqE(adl.Dot(adl.V("s"), "eid"), adl.Dot(adl.V("d"), "supplier")),
			adl.T("DELIVERY"))
		j.Kind = kind
		if kind == adl.NestJ {
			j.As = "g"
		}
		return j
	}
	membership := adl.SemiJoin(adl.T("SUPPLIER"), "s", "p",
		adl.CmpE(adl.In, adl.SubT(adl.V("p"), "pid"), adl.Dot(adl.V("s"), "parts")),
		adl.T("PART"))
	inner := adl.JoinE(adl.T("SUPPLIER"), "s", "d",
		adl.EqE(adl.Dot(adl.V("s"), "eid"), adl.Dot(adl.V("d"), "supplier")),
		adl.T("DELIVERY"))
	chain := adl.JoinE(inner, "sd", "p",
		adl.EqE(adl.Dot(adl.V("sd"), "eid"), adl.Dot(adl.V("p"), "pid")),
		adl.T("PART"))
	return []adl.Expr{
		equi(adl.Inner), equi(adl.Semi), equi(adl.Anti), equi(adl.NestJ), equi(adl.Outer),
		membership,
		chain,
		adl.Sel("s", adl.EqE(adl.Dot(adl.V("s"), "sname"), adl.CStr("nope")), adl.T("SUPPLIER")),
		adl.Mu("parts", adl.T("SUPPLIER")),
		adl.Proj(adl.T("PART"), "pid", "color"),
	}
}

// TestZeroRowPlansStayFinite plans the gauntlet against a freshly created,
// completely empty store using its own collected (all-zero) statistics.
func TestZeroRowPlansStayFinite(t *testing.T) {
	st := storage.New(schema.SupplierPart())
	stats := st.Analyze()
	for _, q := range zeroQueries() {
		pl := Config{Statistics: stats}.Plan(q)
		assertFiniteEstimates(t, pl)
		// The empty plans must also execute to an empty result, not crash.
		got := collect(t, pl.Root, st)
		if got.Len() != 0 {
			t.Errorf("empty store produced %d rows for %s", got.Len(), q)
		}
	}
}

// TestZeroRowChainStaysFinite plans an inner-join chain over zero-row
// relations: statistics that know every attribute but report empty extents.
func TestZeroRowChainStaysFinite(t *testing.T) {
	stats := fakeStatistics{
		rows: map[string]int{"A": 0, "B": 0, "C": 0},
		ndv: map[string]int{
			"A.a_id": 0, "A.a_v": 0,
			"B.b_a": 0, "B.b_c": 0, "B.b_v": 0,
			"C.c_id": 0, "C.c_v": 0,
		},
	}
	pl := Config{Statistics: stats}.Plan(chain3())
	assertFiniteEstimates(t, pl)
	e, ok := pl.Estimate(pl.Root)
	if !ok {
		t.Fatalf("zero-row chain not annotated:\n%s", pl.Explain())
	}
	if e.Rows != 0 {
		t.Errorf("zero-row chain estimates %d rows, want 0", e.Rows)
	}
}

// TestJoinOutRowsGuards exercises the estimator helpers directly at the
// degenerate points.
func TestJoinOutRowsGuards(t *testing.T) {
	kinds := []adl.JoinKind{adl.Inner, adl.Semi, adl.Anti, adl.NestJ, adl.Outer}
	for _, kind := range kinds {
		for _, in := range [][5]float64{
			{0, 0, 0, 0, 0}, {0, 10, 0, 0, 5}, {10, 0, 0, 5, 0},
			{1e18, 1e18, math.Inf(1), 1, 1}, {10, 10, math.NaN(), 0, 0},
		} {
			out := joinOutRows(kind, in[0], in[1], in[2], in[3], in[4])
			if math.IsNaN(out) || math.IsInf(out, 0) || out < 0 {
				t.Errorf("joinOutRows(%v, %v) = %v", kind, in, out)
			}
		}
	}
	if v := finite(math.NaN()); v != 0 {
		t.Errorf("finite(NaN) = %v, want 0", v)
	}
	if v := finite(math.Inf(1)); v != math.MaxFloat64 {
		t.Errorf("finite(+Inf) = %v, want MaxFloat64", v)
	}
	if v := finite(math.Inf(-1)); v != 0 {
		t.Errorf("finite(-Inf) = %v, want 0", v)
	}
}
