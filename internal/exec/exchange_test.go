package exec

import (
	"testing"

	"repro/internal/adl"
	"repro/internal/storage"
	"repro/internal/value"
)

// TestVecExchangeAgainstSerial checks the morsel-driven exchange produces
// exactly the serial pipeline's rows across worker counts (including the
// single-worker degeneracy) and morsel sizes.
func TestVecExchangeAgainstSerial(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		d := db(seed, 150, 10)
		ks := []VecCmp{
			fieldKernel("b", adl.Lt, value.Int(6)),
			fieldKernel("a", adl.Ge, value.Int(3)),
		}
		serial := &VecFilter{Src: vecScan("L", []string{"a", "b"}, 8), Var: "x", Kernels: ks}
		want := collect(t, &VecAdapter{Src: serial}, d)
		for _, workers := range []int{1, 2, 5} {
			for _, morsel := range []int{1, 7, 0} { // 0 → the scan's batch size
				ex := &VecExchange{Src: vecScan("L", []string{"a", "b"}, 8), Kernels: ks,
					Workers: workers, Morsel: morsel}
				got := collect(t, &VecAdapter{Src: ex}, d)
				if !value.Equal(got, want) {
					t.Errorf("seed %d workers %d morsel %d: got %v want %v",
						seed, workers, morsel, got, want)
				}
			}
		}
	}
}

// TestExchangeShape pins the morsel size: an unset Morsel claims the scan's
// batch size, and with neither set DefaultBatchSize rows. Without kernels
// every claimed morsel is one batch.
func TestExchangeShape(t *testing.T) {
	const n = 2*DefaultBatchSize + 5
	d := db(3, n, 1)
	for _, tc := range []struct {
		ex      *VecExchange
		batches int
	}{
		{&VecExchange{Src: vecScan("L", []string{"b"}, 16), Workers: 2}, (n + 15) / 16},
		{&VecExchange{Src: vecScan("L", []string{"b"}, 0), Workers: 2}, 3},
		{&VecExchange{Src: vecScan("L", []string{"b"}, 16), Workers: 2, Morsel: 1000}, 3},
	} {
		bs, err := tc.ex.OpenVec(&Ctx{DB: d})
		if err != nil {
			t.Fatal(err)
		}
		batches := 0
		for {
			_, ok, err := bs.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			batches++
		}
		if err := bs.CloseVec(); err != nil {
			t.Fatal(err)
		}
		if batches != tc.batches {
			t.Errorf("scan batch %d, morsel %d: %d batches, want %d", tc.ex.Src.Batch, tc.ex.Morsel, batches, tc.batches)
		}
	}
}

// TestVecExchangeErrorAndReopen surfaces a kernel error raised on a worker
// (identical to the serial pipeline's error) and reruns the same instance.
func TestVecExchangeErrorAndReopen(t *testing.T) {
	d := db(5, 120, 10)

	// Cross-kind ordered comparison: the interpreter errors row-wise.
	bad := fieldKernel("b", adl.Lt, value.String("x"))
	pipe := &VecFilter{Src: vecScan("L", []string{"b"}, 8), Var: "x", Kernels: []VecCmp{bad}}
	_, serialErr := Collect(&VecAdapter{Src: pipe}, &Ctx{DB: d})
	ex := &VecExchange{Src: vecScan("L", []string{"b"}, 8), Kernels: []VecCmp{bad}, Workers: 3}
	_, exErr := Collect(&VecAdapter{Src: ex}, &Ctx{DB: d})
	if serialErr == nil || exErr == nil || exErr.Error() != serialErr.Error() {
		t.Errorf("error mismatch: exchange=%v serial=%v", exErr, serialErr)
	}

	good := fieldKernel("b", adl.Lt, value.Int(5))
	ex = &VecExchange{Src: vecScan("L", []string{"b"}, 8), Kernels: []VecCmp{good}, Workers: 3}
	want := collect(t, &VecAdapter{Src: ex}, d)
	for i := 0; i < 3; i++ {
		if got := collect(t, &VecAdapter{Src: ex}, d); !value.Equal(got, want) {
			t.Fatalf("reopen %d: got %v want %v", i, got, want)
		}
	}
}

// TestVecExchangeEarlyClose abandons the stream after one batch: the
// workers must unwind through the abort channel and the completion
// goroutine must still close the source (a hang fails by timeout, a leaked
// projection by -race).
func TestVecExchangeEarlyClose(t *testing.T) {
	d := db(7, 5000, 10)
	ctx := &Ctx{DB: d}
	ex := &VecExchange{Src: vecScan("L", []string{"b"}, 4), Workers: 4}
	bs, err := ex.OpenVec(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := bs.NextBatch(); err != nil || !ok {
		t.Fatalf("NextBatch: ok=%v err=%v", ok, err)
	}
	if err := bs.CloseVec(); err != nil {
		t.Fatal(err)
	}
	if err := bs.CloseVec(); err != nil { // CloseVec is idempotent
		t.Fatal(err)
	}
}

// TestVecPNHLAgainstScalar cross-validates PNHL fed by a batch pipeline
// through a VecAdapter against PNHL over the scan, across budgets — unlimited,
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
		d := db(seed, 15, 12)
		for _, m := range []*Scalar{nil, &member} {
			want := collect(t, pnhl(&Scan{Table: "N"}, 0, m), d)
			for _, budget := range []int{0, 1, 3, 5, 100} {
				batched := pnhl(&VecAdapter{Src: vecScan("N", []string{"parts"}, 4)}, budget, m)
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
			_, got := Collect(pnhl(&VecAdapter{Src: vecScan("N", []string{"parts"}, 4)}, budget, nil), &Ctx{DB: d})
			if want == nil || got == nil || got.Error() != want.Error() {
				t.Errorf("%s, budget %d: over the adapter %v, over the scan %v", name, budget, got, want)
			}
		}
	}
}
