package exec

import (
	"strings"
	"testing"

	"repro/internal/adl"
	"repro/internal/eval"
	"repro/internal/storage"
	"repro/internal/value"
)

// TestColumnScanErrorAndReopen checks that a ColumnScan fails with the first
// error a row-by-row run meets — with two rows failing differently in
// different batches, the earlier row's; with two rows of one batch failing
// different conjuncts, a Filter's and the interpreter's — and reruns the
// same node.
func TestColumnScanErrorAndReopen(t *testing.T) {
	const n = 5 * DefaultBatchSize
	rows := make([]value.Value, n)
	for i := range rows {
		rows[i] = value.NewTuple("a", value.Int(int64(i)), "b", value.Int(int64(i%8)))
	}
	// b is no longer uniformly an Int, so the kernel goes row-wise, and the
	// interpreter rejects < between a string, or a bool, and an int.
	rows[300] = value.NewTuple("a", value.Int(300), "b", value.String("s"))
	rows[3000] = value.NewTuple("a", value.Int(3000), "b", value.Bool(true))
	d := storage.NewMemDB("L", value.NewSet(rows...))
	bad := fieldKernel("b", adl.Lt, value.Int(5))
	if _, err := Collect(colScan("L", []string{"b"}, bad), &Ctx{DB: d}); err == nil || !strings.Contains(err.Error(), "string") {
		t.Fatalf("error %v, want the string row's", err)
	}

	// The second batch opens with (a=1, b=0), which passes x.a = 1 and has no
	// c, then (b=0, c=1), which has no a. Run conjunct by conjunct over the
	// batch, the second row fails x.a = 1 before the first reaches x.c = 1.
	rows = make([]value.Value, 3*DefaultBatchSize)
	for i := range rows {
		rows[i] = value.NewTuple("a", value.Int(int64(i+2)), "b", value.Int(0), "c", value.Int(0))
	}
	rows[DefaultBatchSize] = value.NewTuple("a", value.Int(1), "b", value.Int(0))
	rows[DefaultBatchSize+1] = value.NewTuple("b", value.Int(0), "c", value.Int(1))
	d = storage.NewMemDB("L", value.NewSet(rows...))
	ca, cc := adl.EqE(adl.Dot(adl.V("x"), "a"), adl.CInt(1)), adl.EqE(adl.Dot(adl.V("x"), "c"), adl.CInt(1))
	pred := adl.AndE(ca, cc)
	_, evalErr := eval.EvalSet(adl.Sel("x", pred, adl.T("L")), nil, d)
	_, filterErr := Collect(&Filter{Child: &Scan{Table: "L"}, Var: "x", Pred: NewScalar(pred, "x")}, &Ctx{DB: d})
	if evalErr == nil || !strings.Contains(evalErr.Error(), `"c"`) || filterErr == nil || filterErr.Error() != evalErr.Error() {
		t.Fatalf("Filter error %v, interpreter error %v: want both the row without c's", filterErr, evalErr)
	}
	typed := []VecCmp{fieldKernel("a", adl.Eq, value.Int(1)), fieldKernel("c", adl.Eq, value.Int(1))}
	rowWise := []VecCmp{{Pred: NewScalar(ca, "x")}, {Pred: NewScalar(cc, "x")}}
	for name, ks := range map[string][]VecCmp{"typed": typed, "row-wise": rowWise} {
		if _, err := Collect(colScan("L", []string{"a", "c"}, ks...), &Ctx{DB: d}); err == nil || err.Error() != evalErr.Error() {
			t.Errorf("%s kernels: error %v, want %v", name, err, evalErr)
		}
	}

	good := colScan("L", []string{"b"}, fieldKernel("b", adl.Lt, value.Int(5)))
	d = db(5, crossRows, 10)
	want := collect(t, good, d)
	for i := 0; i < 3; i++ {
		if got := collect(t, good, d); !value.Equal(got, want) {
			t.Fatalf("reopen %d: got %v want %v", i, got, want)
		}
	}
}

// TestVecPNHLAgainstScalar cross-validates PNHL fed by a ColumnScan against
// PNHL over the scan, across budgets — unlimited,
// one row and several segments — with and without the member function, and
// on failing inputs: both fail with one error for an element that is no tuple
// and for a row missing the attribute.
func TestVecPNHLAgainstScalar(t *testing.T) {
	member := NewScalar(adl.Dot(adl.V("y"), "c"), "e", "y")
	pnhl := func(l Operator, budget int, m *Scalar) *PNHL {
		return &PNHL{L: l, R: &Scan{Table: "R"}, Attr: "parts",
			ElemKey:    NewScalar(adl.Dot(adl.V("e"), "k"), "e"),
			BuildKey:   NewScalar(adl.Dot(adl.V("y"), "d"), "y"),
			BudgetRows: budget, Member: m}
	}
	for seed := int64(1); seed <= 3; seed++ {
		d := db(seed, crossRows, 12)
		for _, m := range []*Scalar{nil, &member} {
			want := collect(t, pnhl(&Scan{Table: "N"}, 0, m), d)
			for _, budget := range []int{0, 1, 3, 5, 100} {
				batched := pnhl(colScan("N", []string{"parts"}), budget, m)
				if got := collect(t, batched, d); !value.Equal(got, want) {
					t.Errorf("seed %d budget %d member=%v: got %v want %v",
						seed, budget, m != nil, got, want)
				}
				if n := Segments(12, budget); budget == 3 && n < 2 {
					t.Errorf("budget 3 over 12 build rows should need ≥2 segments, used %d", n)
				}
			}
		}
	}

	_, r, _ := randomTables(1, 0, 12)
	elem := value.NewTuple("k", value.Int(1), "w", value.Int(0))
	for name, rows := range map[string][]value.Value{
		"non-tuple element": {value.NewTuple("a", value.Int(1), "parts", value.NewSet(elem, value.Int(3)))},
		"missing attribute": {value.NewTuple("a", value.Int(1), "parts", value.NewSet(elem)), value.NewTuple("a", value.Int(2))},
	} {
		d := storage.NewMemDB("N", value.NewSet(rows...), "R", r)
		for _, budget := range []int{0, 1, 5} {
			_, want := Collect(pnhl(&Scan{Table: "N"}, budget, nil), &Ctx{DB: d})
			_, got := Collect(pnhl(colScan("N", []string{"parts"}), budget, nil), &Ctx{DB: d})
			if want == nil || got == nil || got.Error() != want.Error() {
				t.Errorf("%s, budget %d: over the ColumnScan %v, over the Scan %v", name, budget, got, want)
			}
		}
	}
}
