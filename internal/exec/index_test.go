package exec

import (
	"testing"

	"repro/internal/adl"
	"repro/internal/bench"
	"repro/internal/eval"
	"repro/internal/storage"
	"repro/internal/value"
)

// indexedStore builds a small supplier-delivery database with indexes on
// SUPPLIER.sname (ordered) and DELIVERY.supplier (hash).
func indexedStore(t *testing.T) *storage.Store {
	t.Helper()
	st := bench.Generate(bench.Config{Suppliers: 20, Parts: 10, Fanout: 2,
		Deliveries: 200, Seed: 7})
	if err := st.CreateIndex("SUPPLIER", "sname", storage.OrderedIndex); err != nil {
		t.Fatal(err)
	}
	if err := st.EnsureIndexes("DELIVERY", "supplier"); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestIndexScanEqMatchesFilteredScan(t *testing.T) {
	st := indexedStore(t)
	ctx := &Ctx{DB: st}
	eq := NewScalar(adl.CStr("supplier-3"))
	idx := &IndexScan{Table: "SUPPLIER", Attr: "sname", Eq: &eq}
	got, err := Collect(idx, ctx)
	if err != nil {
		t.Fatal(err)
	}
	pred := NewScalar(adl.EqE(adl.Dot(adl.V("s"), "sname"), adl.CStr("supplier-3")), "s")
	want, err := Collect(&Filter{Child: &Scan{Table: "SUPPLIER"}, Var: "s", Pred: pred}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, want) {
		t.Fatalf("IndexScan(eq) = %v, filtered scan = %v", got, want)
	}
	if got.Len() != 1 {
		t.Fatalf("IndexScan(eq) returned %d rows, want 1", got.Len())
	}
}

func TestIndexScanRangeMatchesFilteredScan(t *testing.T) {
	st := bench.Generate(bench.Config{Suppliers: 5, Parts: 60, Seed: 7})
	if err := st.CreateIndex("PART", "price", storage.OrderedIndex); err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{DB: st}
	lo, hi := NewScalar(adl.CInt(20)), NewScalar(adl.CInt(60))
	idx := &IndexScan{Table: "PART", Attr: "price", Lo: &lo, LoIncl: true, Hi: &hi}
	got, err := Collect(idx, ctx)
	if err != nil {
		t.Fatal(err)
	}
	pred := NewScalar(adl.AndE(
		adl.CmpE(adl.Ge, adl.Dot(adl.V("p"), "price"), adl.CInt(20)),
		adl.CmpE(adl.Lt, adl.Dot(adl.V("p"), "price"), adl.CInt(60))), "p")
	want, err := Collect(&Filter{Child: &Scan{Table: "PART"}, Var: "p", Pred: pred}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, want) {
		t.Fatalf("IndexScan(range) diverges from filtered scan:\n got %v\nwant %v", got, want)
	}
	if got.Len() == 0 {
		t.Fatal("range scan returned no rows; fixture too small")
	}
}

// TestIndexNLJoinMatchesHashJoin: every supported kind must produce exactly
// the hash join's result on the same logical join.
func TestIndexNLJoinMatchesHashJoin(t *testing.T) {
	st := indexedStore(t)
	ctx := &Ctx{DB: st}
	lk := NewScalar(adl.Dot(adl.V("s"), "eid"), "s")
	rk := NewScalar(adl.Dot(adl.V("d"), "supplier"), "d")
	for _, kind := range []adl.JoinKind{adl.Inner, adl.Semi, adl.Anti, adl.NestJ} {
		as := ""
		var rfun *Scalar
		if kind == adl.NestJ {
			as = "ds"
			s := NewScalar(adl.SubT(adl.V("d"), "did"), "s", "d")
			rfun = &s
		}
		idx := &IndexNLJoin{Kind: kind, L: &Scan{Table: "SUPPLIER"},
			Table: "DELIVERY", Attr: "supplier", LVar: "s", RVar: "d",
			LKey: lk, As: as, RFun: rfun}
		got, err := Collect(idx, ctx)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		hj := &HashJoin{Kind: kind, L: &Scan{Table: "SUPPLIER"}, R: &Scan{Table: "DELIVERY"},
			LVar: "s", RVar: "d", LKey: lk, RKey: rk, As: as, RFun: rfun}
		want, err := Collect(hj, ctx)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !value.Equal(got, want) {
			t.Errorf("kind %v: IndexNLJoin diverges from HashJoin (%d vs %d rows)",
				kind, got.Len(), want.Len())
		}
	}
}

// TestIndexNLJoinResidual: extra conjuncts run as a residual on the probed
// matches.
func TestIndexNLJoinResidual(t *testing.T) {
	st := indexedStore(t)
	ctx := &Ctx{DB: st}
	lk := NewScalar(adl.Dot(adl.V("s"), "eid"), "s")
	rk := NewScalar(adl.Dot(adl.V("d"), "supplier"), "d")
	resid := NewScalar(adl.CmpE(adl.Lt, adl.Dot(adl.V("s"), "sname"), adl.CStr("supplier-2")), "s", "d")
	idx := &IndexNLJoin{Kind: adl.Inner, L: &Scan{Table: "SUPPLIER"},
		Table: "DELIVERY", Attr: "supplier", LVar: "s", RVar: "d",
		LKey: lk, Residual: &resid}
	got, err := Collect(idx, ctx)
	if err != nil {
		t.Fatal(err)
	}
	hj := &HashJoin{Kind: adl.Inner, L: &Scan{Table: "SUPPLIER"}, R: &Scan{Table: "DELIVERY"},
		LVar: "s", RVar: "d", LKey: lk, RKey: rk, Residual: &resid}
	want, err := Collect(hj, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, want) {
		t.Fatalf("residual IndexNLJoin diverges (%d vs %d rows)", got.Len(), want.Len())
	}
}

// TestIndexOperatorsRequireIndexedDB: plans with index operators fail
// loudly against databases without index support, and the index join
// refuses the outer kind.
func TestIndexOperatorsRequireIndexedDB(t *testing.T) {
	db := storage.NewMemDB("T", value.NewSet(value.NewTuple("a", value.Int(1))))
	ctx := &Ctx{DB: db}
	eq := NewScalar(adl.CInt(1))
	if _, err := (&IndexScan{Table: "T", Attr: "a", Eq: &eq}).Open(ctx); err == nil {
		t.Error("IndexScan over a MemDB must error")
	}
	lk := NewScalar(adl.Dot(adl.V("x"), "a"), "x")
	if _, err := (&IndexNLJoin{Kind: adl.Inner, L: &Scan{Table: "T"}, Table: "T", Attr: "a",
		LVar: "x", RVar: "y", LKey: lk}).Open(ctx); err == nil {
		t.Error("IndexNLJoin over a MemDB must error")
	}
	st := indexedStore(t)
	if _, err := (&IndexNLJoin{Kind: adl.Outer, L: &Scan{Table: "SUPPLIER"},
		Table: "DELIVERY", Attr: "supplier", LVar: "s", RVar: "d",
		LKey: lk}).Open(&Ctx{DB: st}); err == nil {
		t.Error("IndexNLJoin must refuse the outer kind")
	}
}

// TestIndexNLJoinExistenceProbe: a residual-free semi- or antijoin through
// the index reads at most one inner object per outer row on a hot key (300
// inner rows share k = 5) and returns the nested loop's and the
// interpreter's rows — on the fresh store, after the key's first inner row
// is deleted and its second moved off it, and on a snapshot pinned before.
func TestIndexNLJoinExistenceProbe(t *testing.T) {
	st := antiResidualStore(t, make([]int64, 300)...)
	for i := int64(0); i < 20; i++ {
		if _, err := st.Insert("L", value.NewTuple("a", value.Int(10+i), "k", value.Int(5+i%2))); err != nil {
			t.Fatal(err)
		}
	}
	x, y := adl.V("x"), adl.V("y")
	on := adl.EqE(adl.Dot(x, "k"), adl.Dot(y, "rk"))
	check := func(what string, db eval.DB) {
		for _, kind := range []adl.JoinKind{adl.Semi, adl.Anti} {
			st.ResetStats()
			got, err := Collect(&IndexNLJoin{Kind: kind, L: &Scan{Table: "L"}, Table: "R", Attr: "rk",
				LVar: "x", RVar: "y", LKey: NewScalar(adl.Dot(x, "k"), "x")}, &Ctx{DB: db})
			if err != nil {
				t.Fatalf("%v %s: %v", kind, what, err)
			}
			if reads, outer := st.Stats().ObjectReads, len(st.OIDs("L")); what == "fresh" && reads > outer {
				t.Errorf("%v %s: %d object reads for %d outer rows", kind, what, reads, outer)
			}
			nl := collect(t, &NLJoin{Kind: kind, L: &Scan{Table: "L"}, R: &Scan{Table: "R"},
				LVar: "x", RVar: "y", Pred: NewScalar(on, "x", "y")}, db)
			ref := evalRef(t, &adl.Join{Kind: kind, L: adl.T("L"), R: adl.T("R"), LVar: "x", RVar: "y", On: on}, db)
			if !value.Equal(got, nl) || !value.Equal(got, ref) || got.Len() == 0 {
				t.Errorf("%v %s: IndexNLJoin %v, NLJoin %v, the interpreter %v", kind, what, got, nl, ref)
			}
		}
	}
	check("fresh", st)
	pinned := st.Snapshot()
	defer pinned.Release()
	rids := st.OIDs("R")
	if err := st.Delete("R", rids[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.Update("R", rids[1], value.NewTuple("c", value.Int(1), "rk", value.Int(7), "d", value.Int(0))); err != nil {
		t.Fatal(err)
	}
	check("after a delete and an update", st)
	check("pinned before them", pinned)
}
