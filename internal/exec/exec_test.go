package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/adl"
	"repro/internal/eval"
	"repro/internal/storage"
	"repro/internal/value"
)

// randomTables builds two random flat tables L(a, b) and R(c, d) with
// controlled key overlap, plus a nested table N(a, parts:{(k, w)}).
func randomTables(seed int64, nl, nr int) (l, r, nested *value.Set) {
	rng := rand.New(rand.NewSource(seed))
	l = value.EmptySet()
	for i := 0; i < nl; i++ {
		l.Add(value.NewTuple("a", value.Int(int64(i)), "b", value.Int(int64(rng.Intn(8)))))
	}
	r = value.EmptySet()
	for i := 0; i < nr; i++ {
		r.Add(value.NewTuple("c", value.Int(int64(rng.Intn(16))), "d", value.Int(int64(rng.Intn(8)))))
	}
	nested = value.EmptySet()
	for i := 0; i < nl; i++ {
		inner := value.EmptySet()
		for j := 0; j < rng.Intn(4); j++ {
			inner.Add(value.NewTuple("k", value.Int(int64(rng.Intn(8))), "w", value.Int(int64(j))))
		}
		nested.Add(value.NewTuple("a", value.Int(int64(i)), "parts", inner))
	}
	return l, r, nested
}

func db(seed int64, nl, nr int) *storage.MemDB {
	l, r, n := randomTables(seed, nl, nr)
	return storage.NewMemDB("L", l, "R", r, "N", n)
}

func collect(t *testing.T, op Operator, d eval.DB) *value.Set {
	t.Helper()
	got, err := Collect(op, &Ctx{DB: d})
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return got
}

func evalRef(t *testing.T, e adl.Expr, d eval.DB) *value.Set {
	t.Helper()
	got, err := eval.EvalSet(e, nil, d)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return got
}

// joinPred is b = d, the equi-join predicate used throughout.
func joinPred() adl.Expr {
	return adl.EqE(adl.Dot(adl.V("x"), "b"), adl.Dot(adl.V("y"), "d"))
}

// logicalJoin builds the corresponding logical join for the oracle.
func logicalJoin(kind adl.JoinKind, as string, rfun adl.Expr) *adl.Join {
	return &adl.Join{Kind: kind, LVar: "x", RVar: "y", On: joinPred(),
		As: as, RFun: rfun, L: adl.T("L"), R: adl.T("R")}
}

// TestJoinOperatorsAgainstOracle cross-validates NLJoin and HashJoin for
// every kind against the reference interpreter on randomized inputs.
func TestJoinOperatorsAgainstOracle(t *testing.T) {
	kinds := []struct {
		kind adl.JoinKind
		as   string
	}{
		{adl.Inner, ""}, {adl.Semi, ""}, {adl.Anti, ""}, {adl.NestJ, "ys"}, {adl.Outer, ""},
	}
	for seed := int64(1); seed <= 4; seed++ {
		d := db(seed, 20, 15)
		for _, k := range kinds {
			want := evalRef(t, logicalJoin(k.kind, k.as, nil), d)

			nl := &NLJoin{Kind: k.kind, L: &Scan{Table: "L"}, R: &Scan{Table: "R"},
				LVar: "x", RVar: "y", Pred: NewScalar(joinPred(), "x", "y"), As: k.as}
			if got := collect(t, nl, d); !value.Equal(got, want) {
				t.Errorf("seed %d NLJoin %v: got %v want %v", seed, k.kind, got, want)
			}

			hj := &HashJoin{Kind: k.kind, L: &Scan{Table: "L"}, R: &Scan{Table: "R"},
				LVar: "x", RVar: "y",
				LKey: NewScalar(adl.Dot(adl.V("x"), "b"), "x"),
				RKey: NewScalar(adl.Dot(adl.V("y"), "d"), "y"), As: k.as}
			if got := collect(t, hj, d); !value.Equal(got, want) {
				t.Errorf("seed %d HashJoin %v: got %v want %v", seed, k.kind, got, want)
			}
		}
	}
}

// TestHashJoinResidual checks residual predicate handling.
func TestHashJoinResidual(t *testing.T) {
	d := db(7, 25, 20)
	pred := adl.AndE(joinPred(), adl.CmpE(adl.Lt, adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "c")))
	logical := &adl.Join{Kind: adl.Inner, LVar: "x", RVar: "y", On: pred, L: adl.T("L"), R: adl.T("R")}
	want := evalRef(t, logical, d)
	res := NewScalar(adl.CmpE(adl.Lt, adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "c")), "x", "y")
	hj := &HashJoin{Kind: adl.Inner, L: &Scan{Table: "L"}, R: &Scan{Table: "R"},
		LVar: "x", RVar: "y",
		LKey:     NewScalar(adl.Dot(adl.V("x"), "b"), "x"),
		RKey:     NewScalar(adl.Dot(adl.V("y"), "d"), "y"),
		Residual: &res}
	if got := collect(t, hj, d); !value.Equal(got, want) {
		t.Errorf("residual hash join: got %v want %v", got, want)
	}
}

// TestNestJoinRFun checks the extended nestjoin's right-tuple function.
func TestNestJoinRFun(t *testing.T) {
	d := db(9, 15, 12)
	rfunExpr := adl.Dot(adl.V("y"), "c")
	want := evalRef(t, logicalJoin(adl.NestJ, "cs", rfunExpr), d)
	rfun := NewScalar(rfunExpr, "x", "y")
	hj := &HashJoin{Kind: adl.NestJ, L: &Scan{Table: "L"}, R: &Scan{Table: "R"},
		LVar: "x", RVar: "y",
		LKey: NewScalar(adl.Dot(adl.V("x"), "b"), "x"),
		RKey: NewScalar(adl.Dot(adl.V("y"), "d"), "y"),
		As:   "cs", RFun: &rfun}
	if got := collect(t, hj, d); !value.Equal(got, want) {
		t.Errorf("nestjoin rfun: got %v want %v", got, want)
	}
}

// TestSetProbeJoin validates the hash join on membership (HashJoin.In) against the logical
// semantics of key(y) ∈ x.parts for semi, anti and nest kinds.
func TestSetProbeJoin(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		d := db(seed, 12, 10)
		// Logical: N ⋉(x,y: (k = y.d) ∈ α-elems of x.parts) ... expressed
		// directly: the probe element is the unary tuple (k = y.d, w = ...)?
		// Elements of parts are (k, w) pairs; use key k only via RKey
		// producing a (k, w) shape is wrong — so probe on whole elements:
		// build R rows keyed by (k=d, w=0..3) cannot match generally.
		// Instead use membership of (k=y.d, w=y.c) — construct matching
		// tuples so whole-element equality is exercised.
		rk := adl.Tup("k", adl.Dot(adl.V("y"), "d"), "w", adl.Dot(adl.V("y"), "c"))
		on := adl.CmpE(adl.In, rk, adl.Dot(adl.V("x"), "parts"))
		for _, kind := range []adl.JoinKind{adl.Semi, adl.Anti, adl.NestJ} {
			as := ""
			if kind == adl.NestJ {
				as = "ys"
			}
			logical := &adl.Join{Kind: kind, LVar: "x", RVar: "y", On: on, As: as,
				L: adl.T("N"), R: adl.T("R")}
			want := evalRef(t, logical, d)
			sp := &HashJoin{Kind: kind, L: &Scan{Table: "N"}, R: &Scan{Table: "R"},
				In: "parts", RKey: NewScalar(rk, "y"), As: as}
			if got := collect(t, sp, d); !value.Equal(got, want) {
				t.Errorf("seed %d HashJoin ∈ %v: got %v want %v", seed, kind, got, want)
			}
		}
	}
}

// TestUnnestNestRoundTrip validates μ and ν operators against the logical
// ones.
func TestUnnestNestRoundTrip(t *testing.T) {
	d := db(11, 18, 5)
	wantU := evalRef(t, adl.Mu("parts", adl.T("N")), d)
	u := &UnnestOp{Child: &Scan{Table: "N"}, Attr: "parts"}
	if got := collect(t, u, d); !value.Equal(got, wantU) {
		t.Errorf("UnnestOp: got %v want %v", got, wantU)
	}
	wantN := evalRef(t, adl.Nu(adl.Mu("parts", adl.T("N")), "parts", "k", "w"), d)
	nst := &NestOp{Child: &UnnestOp{Child: &Scan{Table: "N"}, Attr: "parts"},
		Attrs: []string{"k", "w"}, As: "parts"}
	if got := collect(t, nst, d); !value.Equal(got, wantN) {
		t.Errorf("NestOp: got %v want %v", got, wantN)
	}
}

// TestFilterMapProjectFlatten validates the row operators.
func TestFilterMapProjectFlatten(t *testing.T) {
	d := db(13, 20, 8)
	pred := adl.CmpE(adl.Gt, adl.Dot(adl.V("x"), "b"), adl.CInt(3))
	want := evalRef(t, adl.Sel("x", pred, adl.T("L")), d)
	f := &Filter{Child: &Scan{Table: "L"}, Var: "x", Pred: NewScalar(pred, "x")}
	if got := collect(t, f, d); !value.Equal(got, want) {
		t.Errorf("Filter: got %v want %v", got, want)
	}

	body := adl.Tup("bb", adl.Dot(adl.V("x"), "b"))
	wantM := evalRef(t, adl.MapE("x", body, adl.T("L")), d)
	m := &MapOp{Child: &Scan{Table: "L"}, Var: "x", Body: NewScalar(body, "x")}
	if got := collect(t, m, d); !value.Equal(got, wantM) {
		t.Errorf("MapOp: got %v want %v", got, wantM)
	}

	wantP := evalRef(t, adl.Proj(adl.T("L"), "b"), d)
	p := &ProjectOp{Child: &Scan{Table: "L"}, Attrs: []string{"b"}}
	if got := collect(t, p, d); !value.Equal(got, wantP) {
		t.Errorf("ProjectOp: got %v want %v", got, wantP)
	}

	wantF := evalRef(t, adl.Flat(adl.MapE("x", adl.Dot(adl.V("x"), "parts"), adl.T("N"))), d)
	fl := &FlattenOp{Child: &MapOp{Child: &Scan{Table: "N"}, Var: "x",
		Body: NewScalar(adl.Dot(adl.V("x"), "parts"), "x")}}
	if got := collect(t, fl, d); !value.Equal(got, wantF) {
		t.Errorf("FlattenOp: got %v want %v", got, wantF)
	}
}

// TestAssembly validates the pointer-based materialize against the rows it
// must build: each row extended by the object its oid references, or by the
// set of objects its reference set names.
func TestAssembly(t *testing.T) {
	row := value.NewTuple("sid", value.OID(1), "ref", value.OID(10),
		"refs", value.NewSet(value.NewTuple("pid", value.OID(10)), value.NewTuple("pid", value.OID(11))))
	d := storage.NewMemDB("S", value.NewSet(row))
	d.Objs[10] = value.NewTuple("pid", value.OID(10), "v", value.Int(1))
	d.Objs[11] = value.NewTuple("pid", value.OID(11), "v", value.Int(2))
	extended := func(as string, v value.Value) *value.Set {
		w, err := row.With(as, v)
		if err != nil {
			t.Fatal(err)
		}
		return value.NewSet(w)
	}

	want := extended("obj", d.Objs[10])
	a := &Assembly{Child: &Scan{Table: "S"}, Attr: "ref", As: "obj"}
	if got := collect(t, a, d); !value.Equal(got, want) {
		t.Errorf("Assembly scalar: got %v want %v", got, want)
	}

	want2 := extended("objs", value.NewSet(d.Objs[10], d.Objs[11]))
	a2 := &Assembly{Child: &Scan{Table: "S"}, Attr: "refs", As: "objs"}
	if got := collect(t, a2, d); !value.Equal(got, want2) {
		t.Errorf("Assembly set: got %v want %v", got, want2)
	}

	// Dangling pointers surface as errors.
	d.Objs = map[value.OID]*value.Tuple{}
	a3 := &Assembly{Child: &Scan{Table: "S"}, Attr: "ref", As: "obj"}
	if _, err := Collect(a3, &Ctx{DB: d}); err == nil {
		t.Errorf("Assembly must fail on dangling oid")
	}
}

// TestDuplicateAttributeIsAnError: an operator that extends a row by an
// attribute the row already holds — the nestjoin and ν with the
// interpreter's error, materialize with its own — fails, not panics.
func TestDuplicateAttributeIsAnError(t *testing.T) {
	d := db(3, 6, 4)
	d.Objs[10] = value.NewTuple("pid", value.OID(10), "v", value.Int(1))
	d.Tables["S"] = value.NewSet(value.NewTuple("sid", value.OID(1), "ref", value.OID(10)))
	for _, c := range []struct {
		name string
		op   Operator
		expr adl.Expr
	}{
		{"nestjoin",
			&NLJoin{Kind: adl.NestJ, L: &Scan{Table: "L"}, R: &Scan{Table: "R"}, LVar: "x", RVar: "y",
				Pred: NewScalar(joinPred(), "x", "y"), As: "a"},
			adl.NestJoin(adl.T("L"), "x", "y", joinPred(), "a", adl.T("R"))},
		{"nest",
			&NestOp{Child: &Scan{Table: "L"}, Attrs: []string{"b"}, As: "a"},
			adl.Nu(adl.T("L"), "a", "b")},
	} {
		_, err := Collect(c.op, &Ctx{DB: d})
		_, rerr := eval.EvalSet(c.expr, nil, d)
		if err == nil || rerr == nil || err.Error() != rerr.Error() || !strings.Contains(err.Error(), "duplicate attribute") {
			t.Errorf("%s: exec %v, the interpreter %v; want the same duplicate-attribute error", c.name, err, rerr)
		}
	}
	twice := &Assembly{Child: &Assembly{Child: &Scan{Table: "S"}, Attr: "ref", As: "obj"}, Attr: "ref", As: "obj"}
	if _, err := Collect(twice, &Ctx{DB: d}); err == nil || !strings.Contains(err.Error(), "duplicate attribute") {
		t.Errorf("materialize: %v, want a duplicate-attribute error", err)
	}
}

// TestPNHL validates the partitioned algorithm against its logical
// specification — the nested natural join of the set-valued attribute with
// the flat table — across memory budgets, including budgets smaller than
// the build table.
func TestPNHL(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		d := db(seed, 15, 12)
		// Logical spec: α[z : z except (parts = {e ∘ y | e ∈ z.parts,
		// y ∈ R, e.k = y.d})](N).
		spec := adl.MapE("z",
			adl.Exc(adl.V("z"), "parts",
				adl.Flat(adl.MapE("e",
					adl.MapE("y2", adl.Cat(adl.V("e"), adl.V("y2")),
						adl.Sel("y", adl.EqE(adl.Dot(adl.V("e"), "k"), adl.Dot(adl.V("y"), "d")), adl.T("R"))),
					adl.Dot(adl.V("z"), "parts")))),
			adl.T("N"))
		want := evalRef(t, spec, d)
		for _, budget := range []int{0, 1, 3, 5, 100} {
			p := &PNHL{
				L: &Scan{Table: "N"}, R: &Scan{Table: "R"},
				Attr:       "parts",
				ElemKey:    NewScalar(adl.Dot(adl.V("e"), "k"), "e"),
				BuildKey:   NewScalar(adl.Dot(adl.V("y"), "d"), "y"),
				BudgetRows: budget,
			}
			got := collect(t, p, d)
			if !value.Equal(got, want) {
				t.Errorf("seed %d budget %d: PNHL got %v want %v", seed, budget, got, want)
			}
			if n := Segments(12, budget); budget == 3 && n < 2 {
				t.Errorf("budget 3 over 12 build rows should need ≥2 segments, used %d", n)
			}
		}
	}
}

// TestPNHLEmptyInputs covers the degenerate cases.
func TestPNHLEmptyInputs(t *testing.T) {
	d := storage.NewMemDB(
		"N", value.NewSet(value.NewTuple("a", value.Int(1), "parts", value.EmptySet())),
		"R", value.EmptySet(),
	)
	p := &PNHL{L: &Scan{Table: "N"}, R: &Scan{Table: "R"}, Attr: "parts",
		ElemKey:  NewScalar(adl.Dot(adl.V("e"), "k"), "e"),
		BuildKey: NewScalar(adl.Dot(adl.V("y"), "d"), "y"), BudgetRows: 2}
	got := collect(t, p, d)
	if got.Len() != 1 {
		t.Fatalf("empty-build PNHL = %v", got)
	}
	tup := got.Elems()[0].(*value.Tuple)
	if set := tup.MustGet("parts").(*value.Set); set.Len() != 0 {
		t.Errorf("empty join result expected, got %v", set)
	}
}

// TestOperatorsReopen ensures plans can be executed repeatedly.
func TestOperatorsReopen(t *testing.T) {
	d := db(17, 10, 8)
	hj := &HashJoin{Kind: adl.Inner, L: &Scan{Table: "L"}, R: &Scan{Table: "R"},
		LVar: "x", RVar: "y",
		LKey: NewScalar(adl.Dot(adl.V("x"), "b"), "x"),
		RKey: NewScalar(adl.Dot(adl.V("y"), "d"), "y")}
	first := collect(t, hj, d)
	second := collect(t, hj, d)
	if !value.Equal(first, second) {
		t.Errorf("re-open changed results")
	}
}

// TestScalarArity pins the scalar arity check.
func TestScalarArity(t *testing.T) {
	s := NewScalar(adl.CBool(true), "x")
	if _, err := s.Eval(&Ctx{DB: storage.NewMemDB()}); err == nil {
		t.Errorf("arity mismatch must fail")
	}
}

// TestCollectDeduplicates: set semantics at the collection boundary.
func TestCollectDeduplicates(t *testing.T) {
	dup := value.NewSet(
		value.NewTuple("a", value.Int(1), "b", value.Int(1)),
		value.NewTuple("a", value.Int(2), "b", value.Int(1)),
	)
	d := storage.NewMemDB("T", dup)
	p := &ProjectOp{Child: &Scan{Table: "T"}, Attrs: []string{"b"}}
	got := collect(t, p, d)
	if got.Len() != 1 {
		t.Errorf("projection duplicates must collapse, got %v", got)
	}
}

// TestScanErrors covers missing tables and attribute errors.
func TestScanErrors(t *testing.T) {
	d := storage.NewMemDB()
	if _, err := Collect(&Scan{Table: "NOPE"}, &Ctx{DB: d}); err == nil {
		t.Errorf("unknown table must fail")
	}
	d2 := db(19, 3, 3)
	u := &UnnestOp{Child: &Scan{Table: "L"}, Attr: "zzz"}
	if _, err := Collect(u, &Ctx{DB: d2}); err == nil {
		t.Errorf("unnest of missing attribute must fail")
	}
}

var _ = fmt.Sprintf // keep fmt for debug helpers
