package exec

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/adl"
	"repro/internal/eval"
	"repro/internal/storage"
	"repro/internal/value"
)

// TestColumnScanWorkersAgainstSerial checks that a parallel ColumnScan
// returns exactly the serial one's rows in the serial order, for worker
// counts from one up to more than the table has batches.
func TestColumnScanWorkersAgainstSerial(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		d := db(seed, 4*DefaultBatchSize+150, 10)
		ks := []VecCmp{
			fieldKernel("b", adl.Lt, value.Int(6)),
			fieldKernel("a", adl.Ge, value.Int(3)),
		}
		want := streamed(t, colScan("L", []string{"a", "b"}, ks...), d)
		if len(want) == 0 {
			t.Fatalf("seed %d: the serial scan keeps no row", seed)
		}
		for _, workers := range []int{1, 2, 3, 5, 8} {
			par := colScan("L", []string{"a", "b"}, ks...)
			par.Workers = workers
			got := streamed(t, par, d)
			if !slices.EqualFunc(got, want, value.Equal) {
				t.Errorf("seed %d workers %d: %d rows, not the serial %d in order", seed, workers, len(got), len(want))
			}
		}
	}
}

// TestColumnScanErrorAndReopen checks that a parallel ColumnScan fails with
// the serial run's error — with two rows failing differently in different
// batches, the earlier row's; with two rows of one batch failing different
// conjuncts, a Filter's and the interpreter's — and reruns the same node.
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
	_, serialErr := Collect(colScan("L", []string{"b"}, bad), &Ctx{DB: d})
	if serialErr == nil || !strings.Contains(serialErr.Error(), "string") {
		t.Fatalf("serial error %v, want the string row's", serialErr)
	}
	for _, workers := range []int{2, 3, 5} {
		par := colScan("L", []string{"b"}, bad)
		par.Workers = workers
		if _, err := Collect(par, &Ctx{DB: d}); err == nil || err.Error() != serialErr.Error() {
			t.Errorf("workers %d: error %v, want the serial %v", workers, err, serialErr)
		}
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
		for _, workers := range []int{1, 2, 3, 5} {
			scan := colScan("L", []string{"a", "c"}, ks...)
			scan.Workers = workers
			if _, err := Collect(scan, &Ctx{DB: d}); err == nil || err.Error() != evalErr.Error() {
				t.Errorf("%s kernels, workers %d: error %v, want %v", name, workers, err, evalErr)
			}
		}
	}

	good := colScan("L", []string{"b"}, fieldKernel("b", adl.Lt, value.Int(5)))
	good.Workers = 3
	d = db(5, crossRows, 10)
	want := collect(t, good, d)
	for i := 0; i < 3; i++ {
		if got := collect(t, good, d); !value.Equal(got, want) {
			t.Fatalf("reopen %d: got %v want %v", i, got, want)
		}
	}
}

// TestColumnScanLeavesNoGoroutines checks that a parallel ColumnScan's
// workers are gone when its stream is handed up: after a Collect, and after
// Close on a stream read only in part.
func TestColumnScanLeavesNoGoroutines(t *testing.T) {
	d := db(7, 5000, 10)
	scan := colScan("L", []string{"b"})
	scan.Workers = 4
	base := runtime.NumGoroutine()
	collect(t, scan, d)
	settled(t, "after Collect", base)
	rows, err := scan.Open(&Ctx{DB: d})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := rows.Next(); err != nil || !ok {
		t.Fatalf("Next: ok=%v err=%v", ok, err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	settled(t, "after Close on a partly read stream", base)
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
