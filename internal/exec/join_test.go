package exec

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/adl"
	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/value"
)

type joinKindCase struct {
	name string
	kind adl.JoinKind
	rfun *Scalar
}

// joinKindCases are the five join kinds, the nestjoin with and without its
// right-tuple function (over the payload y.c).
func joinKindCases() []joinKindCase {
	rfun := NewScalar(adl.Dot(adl.V("y"), "c"), "x", "y")
	return []joinKindCase{
		{"inner", adl.Inner, nil}, {"semi", adl.Semi, nil}, {"anti", adl.Anti, nil},
		{"outer", adl.Outer, nil}, {"nestjoin", adl.NestJ, nil}, {"nestjoin-rfun", adl.NestJ, &rfun},
	}
}

// keyShapeDB holds a probe table L and build tables whose key attributes
// cover every column kind: L(a, i, dt, o, bo, s, f, m, bits, z, u) with m an
// int on even rows and a string on odd ones (a Mixed column), bits an Int,
// OID, Date or Bool of bits 1 or an Int 0, z a float +0, -0 or 0.5 and u a
// unary tuple ⟨k⟩ or ⟨j⟩; R(c, ri, rdt, ro, rbo, rs, rf, rbits, rz, ru) with
// duplicate keys, rbits OIDs, rz a float -0, +0 or 1 and ru ⟨k⟩ tuples
// only; M(c, rm, mbits, mu) with build keys of two kinds or more: rm an Int
// or a String, mbits an Int, OID, Date or Bool of bits 1, mu ⟨k⟩ or ⟨j⟩; and
// the empty E.
func keyShapeDB() *storage.MemDB {
	bits := []value.Value{value.Int(1), value.OID(1), value.Date(1), value.Bool(true), value.Int(0)}
	zeros := []value.Value{value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(0.5)}
	unary := func(i int, names ...string) value.Value {
		return value.NewTuple(names[i%len(names)], value.Int(int64(i%4)))
	}
	l := value.EmptySet()
	for i := 0; i < 23; i++ {
		var m value.Value = value.Int(int64(i % 5))
		if i%2 == 1 {
			m = value.String(fmt.Sprintf("k%d", i%5))
		}
		l.Add(value.NewTuple("a", value.Int(int64(i)), "i", value.Int(int64(i%7)),
			"dt", value.Date(940100+int64(i%6)), "o", value.OID(int64(100+i%5)), "bo", value.Bool(i%3 == 0),
			"s", value.String(fmt.Sprintf("k%d", i%5)), "f", value.Float(float64(i%4)/2), "m", m,
			"bits", bits[i%5], "z", zeros[i%3], "u", unary(i, "k", "j", "k")))
	}
	r, mixed := value.EmptySet(), value.EmptySet()
	for i := 0; i < 17; i++ {
		r.Add(value.NewTuple("c", value.Int(int64(i)), "ri", value.Int(int64(i%5)),
			"rdt", value.Date(940100+int64(i%4)), "ro", value.OID(int64(100+i%3)), "rbo", value.Bool(true),
			"rs", value.String(fmt.Sprintf("k%d", i%4)), "rf", value.Float(float64(i%3)/2),
			"rbits", value.OID(int64(i%3)), "rz", []value.Value{zeros[1], zeros[0], value.Float(1)}[i%3],
			"ru", unary(i, "k")))
		var m value.Value = value.Int(int64(i % 3))
		if i%3 == 1 {
			m = value.String(fmt.Sprintf("k%d", i%4))
		}
		mixed.Add(value.NewTuple("c", value.Int(int64(i)), "rm", m, "mbits", bits[i%4], "mu", unary(i, "j", "k")))
	}
	return storage.NewMemDB("L", l, "R", r, "M", mixed, "E", value.EmptySet())
}

// leftArms are the two ways a join's left rows arrive, over table: a Scan,
// and a ColumnScan without kernels.
func leftArms(table string) map[string]Operator {
	return map[string]Operator{"scan": &Scan{Table: table}, "columns": colScan(table, nil)}
}

// equiOracle is the oracle of the hash join: NLJoin over lkey = rkey and the
// residual, which shares no code with the hash tables.
func equiOracle(kind adl.JoinKind, l Operator, right string, lkey, rkey adl.Expr, res *Scalar, rfun *Scalar) *NLJoin {
	var pred adl.Expr = adl.EqE(lkey, rkey)
	if res != nil {
		pred = adl.AndE(pred, res.Expr)
	}
	return &NLJoin{Kind: kind, L: l, R: &Scan{Table: right}, LVar: "x", RVar: "y",
		Pred: NewScalar(pred, "x", "y"), As: "ys", RFun: rfun}
}

// TestHashJoinKeyShapes cross-validates the hash join against NLJoin, and
// NLJoin against the reference interpreter, on every kind × every key column
// shape (int, date, oid, bool, string, float, a column mixing kinds, build
// keys of two kinds, keys of two kinds that never meet, keys of four kinds
// that share their bits, signed zeros, unary tuples of one shape and of two,
// an empty build side) × residual × left rows from a Scan and from a
// ColumnScan × 1, 2 and 5 workers: the same rows in the same order. Each
// shape's build keys make the table it names: the int table or the
// value.Index.
func TestHashJoinKeyShapes(t *testing.T) {
	d := keyShapeDB()
	residual := NewScalar(adl.CmpE(adl.Lt, adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "c")), "x", "y")
	shapes := []struct {
		name, lattr, table, rattr string
		matches                   bool // some left row has a partner
		ints                      bool // the build keys make the int table
	}{
		{"int", "i", "R", "ri", true, true},
		{"date", "dt", "R", "rdt", true, true},
		{"oid", "o", "R", "ro", true, true},
		{"bool", "bo", "R", "rbo", true, true},
		{"string", "s", "R", "rs", true, false},
		{"float", "f", "R", "rf", true, false},
		{"mixed-column-int-keys", "m", "R", "ri", true, true},
		{"mixed-column-string-keys", "m", "R", "rs", true, false},
		{"mixed-column-mixed-keys", "m", "M", "rm", true, false},
		{"string-column-mixed-keys", "s", "M", "rm", true, false},
		{"int-column-string-keys", "i", "R", "rs", false, false},
		{"string-column-int-keys", "s", "R", "ri", false, true},
		{"shared-bits-oid-keys", "bits", "R", "rbits", true, true},
		{"shared-bits-four-kinds", "bits", "M", "mbits", true, false},
		{"signed-zero", "z", "R", "rz", true, false},
		{"unary-one-shape", "u", "R", "ru", true, true},
		{"unary-two-shapes", "u", "M", "mu", true, false},
		{"empty-build", "s", "E", "rs", false, false},
	}
	for _, sh := range shapes {
		lx, ry := adl.Dot(adl.V("x"), sh.lattr), adl.Dot(adl.V("y"), sh.rattr)
		lkey, rkey := NewScalar(lx, "x"), NewScalar(ry, "y")
		build, _ := d.Table(sh.table)
		if tab, err := newJoinTable(&Ctx{DB: d}, build.Elems(), rkey, 1); err != nil || (tab.ints != nil) != sh.ints {
			t.Errorf("%s: int table %v (%v), want %v", sh.name, tab.ints != nil, err, sh.ints)
		}
		for _, kc := range joinKindCases() {
			for _, res := range []*Scalar{nil, &residual} {
				oracle := equiOracle(kc.kind, &Scan{Table: "L"}, sh.table, lx, ry, res, kc.rfun)
				want := streamed(t, oracle, d)
				if sh.matches && res == nil && len(want) == 0 {
					t.Errorf("%s %s: empty reference result, the case checks nothing", sh.name, kc.name)
				}
				logical := &adl.Join{Kind: kc.kind, LVar: "x", RVar: "y", On: oracle.Pred.Expr, As: "ys",
					L: adl.T("L"), R: adl.T(sh.table)}
				if kc.rfun != nil {
					logical.RFun = kc.rfun.Expr
				}
				if ref := evalRef(t, logical, d); !value.Equal(ref, value.NewSetFromSlice(want)) {
					t.Errorf("%s %s residual=%v: NLJoin %v, the interpreter %v", sh.name, kc.name, res != nil, want, ref)
				}
				for arm, l := range leftArms("L") {
					for _, w := range []int{1, 2, 5} {
						hj := &HashJoin{Kind: kc.kind, L: l, R: &Scan{Table: sh.table}, LVar: "x", RVar: "y",
							LKey: lkey, RKey: rkey, Residual: res, As: "ys", RFun: kc.rfun, Workers: w}
						if got := streamed(t, hj, d); !sameRows(got, want) {
							t.Errorf("%s %s residual=%v %s workers %d: got %v want %v",
								sh.name, kc.name, res != nil, arm, w, got, want)
						}
					}
				}
			}
		}
	}
}

// TestEmptyRightOperand: a semi- or antijoin over an empty right operand
// keeps no left row (⋉) or every one in order (▷) — μ-fused, every unnested
// row — and evaluates neither a key nor the predicate, as the interpreter
// does not: L's rows fail the key 1 / x.b (b = 0, or no b) and the fused
// join's key x.k (an element without k), and membership in x.ps (no ps). A
// left row that is no tuple fails every arm and the interpreter, and so does
// μ over a row without ps. NLJoin, HashJoin on the key and on membership at
// 1, 2 and 5 workers, and HashJoin expanding μ, over an empty extent and
// over a Filter that keeps no row, each against eval.
func TestEmptyRightOperand(t *testing.T) {
	x, y := adl.V("x"), adl.V("y")
	set := func(vs ...value.Value) *value.Set { return value.NewSet(vs...) }
	k := func(i int64) value.Value { return value.NewTuple("k", value.Int(i)) }
	d := storage.NewMemDB(
		"L", set(value.NewTuple("a", value.Int(1), "b", value.Int(0), "ps", set(k(1), k(2))),
			value.NewTuple("a", value.Int(2), "b", value.Int(2), "ps", set(value.NewTuple("z", value.Int(3)), k(4))),
			value.NewTuple("a", value.Int(3), "ps", set())),
		"NP", set(value.NewTuple("a", value.Int(1), "b", value.Int(1)), value.NewTuple("a", value.Int(2), "b", value.Int(0))),
		"NT", set(value.NewTuple("a", value.Int(1), "b", value.Int(1), "ps", set()), value.Int(7)),
		"R", set(value.NewTuple("c", value.Int(1), "d", value.Int(1))),
		"E", value.EmptySet(),
	)
	inv := &adl.Arith{Op: adl.Div, L: adl.CInt(1), R: adl.Dot(x, "b")}
	dd := adl.Dot(y, "d")
	never := adl.CmpE(adl.Lt, adl.Dot(y, "c"), adl.CInt(0))
	rights := []struct {
		name string
		op   func() Operator
		expr adl.Expr
	}{
		{"empty extent", func() Operator { return &Scan{Table: "E"} }, adl.T("E")},
		{"empty filter", func() Operator {
			return &Filter{Child: &Scan{Table: "R"}, Var: "y", Pred: NewScalar(never, "y")}
		}, adl.Sel("y", never, adl.T("R"))},
	}
	if _, err := Collect(&HashJoin{Kind: adl.Semi, L: &Scan{Table: "L"}, R: &Scan{Table: "R"}, LVar: "x", RVar: "y",
		LKey: NewScalar(inv, "x"), RKey: NewScalar(dd, "y")}, &Ctx{DB: d}); err == nil {
		t.Fatal("L's keys must fail a join whose right operand has rows")
	}
	for _, r := range rights {
		for _, kind := range []adl.JoinKind{adl.Semi, adl.Anti} {
			for _, table := range []string{"L", "NP", "NT"} {
				type arm struct {
					name    string
					op      Operator
					logical adl.Expr
					left    Operator // the rows a ▷ keeps, in order
				}
				join := func(l adl.Expr, on adl.Expr) adl.Expr {
					return &adl.Join{Kind: kind, L: l, R: r.expr, LVar: "x", RVar: "y", On: on}
				}
				scan := &Scan{Table: table}
				arms := []arm{{"NLJoin", &NLJoin{Kind: kind, L: scan, R: r.op(), LVar: "x", RVar: "y",
					Pred: NewScalar(adl.EqE(inv, dd), "x", "y")}, join(adl.T(table), adl.EqE(inv, dd)), scan}}
				for _, w := range []int{1, 2, 5} {
					arms = append(arms,
						arm{fmt.Sprintf("HashJoin workers %d", w), &HashJoin{Kind: kind, L: scan, R: r.op(),
							LVar: "x", RVar: "y", LKey: NewScalar(inv, "x"), RKey: NewScalar(dd, "y"), Workers: w},
							join(adl.T(table), adl.EqE(inv, dd)), scan},
						arm{fmt.Sprintf("HashJoin.In workers %d", w), &HashJoin{Kind: kind, L: scan, R: r.op(),
							LVar: "x", RVar: "y", RKey: NewScalar(adl.SubT(y, "c"), "y"), In: "ps", Workers: w},
							join(adl.T(table), adl.CmpE(adl.In, adl.SubT(y, "c"), adl.Dot(x, "ps"))), scan},
						arm{fmt.Sprintf("HashJoin μ workers %d", w), &HashJoin{Kind: kind, L: scan, R: r.op(),
							LVar: "x", RVar: "y", LKey: NewScalar(adl.Dot(x, "k"), "x"), RKey: NewScalar(dd, "y"),
							Unnest: "ps", Workers: w},
							join(adl.Mu("ps", adl.T(table)), adl.EqE(adl.Dot(x, "k"), dd)), &UnnestOp{Child: scan, Attr: "ps"}})
				}
				for _, a := range arms {
					name := fmt.Sprintf("%s %v over %s, %s", a.name, kind, table, r.name)
					if a.name == "HashJoin μ workers 1" && a.op.(*HashJoin).ProbeAttr() != "k" {
						t.Fatalf("%s: the join does not expand μ inside its probe", name)
					}
					ref, rerr := eval.EvalSet(a.logical, nil, d)
					got, err := Collect(a.op, &Ctx{DB: d})
					if (err == nil) != (rerr == nil) || err == nil && !value.Equal(got, ref) {
						t.Errorf("%s: %v (%v), the interpreter %v (%v)", name, got, err, ref, rerr)
					}
					if err != nil || kind != adl.Anti {
						continue
					}
					left, lerr := drain(a.left, &Ctx{DB: d})
					if rows := streamed(t, a.op, d); lerr != nil || !sameRows(rows, left) {
						t.Errorf("%s: rows %v, want L's %v (%v)", name, rows, left, lerr)
					}
				}
			}
		}
	}
}

// sameRows reports whether got and want hold equal rows in one order.
func sameRows(got, want []value.Value) bool {
	return slices.EqualFunc(got, want, value.Equal)
}

// TestHashJoinRandomized repeats the comparison on the random tables the
// other operators are tested on (duplicate keys on both sides), with a
// filtered build side on a ColumnScan.
func TestHashJoinRandomized(t *testing.T) {
	residual := NewScalar(adl.CmpE(adl.Lt, adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "c")), "x", "y")
	lx, ry := adl.Dot(adl.V("x"), "b"), adl.Dot(adl.V("y"), "d")
	build := func() Operator {
		return colScan("R", []string{"c"}, fieldKernel("c", adl.Ge, value.Int(3)))
	}
	for seed := int64(1); seed <= 4; seed++ {
		d := db(seed, 60, 40)
		for _, kc := range joinKindCases() {
			for _, res := range []*Scalar{nil, &residual} {
				oracle := equiOracle(kc.kind, &Scan{Table: "L"}, "R", lx, ry, res, kc.rfun)
				oracle.R = build()
				want := collect(t, oracle, d)
				for arm, l := range leftArms("L") {
					for _, parts := range []int{1, 4} {
						hj := &HashJoin{Kind: kc.kind, L: l, R: build(), LVar: "x", RVar: "y",
							LKey: NewScalar(lx, "x"), RKey: NewScalar(ry, "y"), Residual: res,
							As: "ys", RFun: kc.rfun, Workers: parts}
						if got := collect(t, hj, d); !value.Equal(got, want) {
							t.Errorf("seed %d %s residual=%v %s workers %d: got %v want %v",
								seed, kc.name, res != nil, arm, parts, got, want)
						}
					}
				}
			}
		}
	}
}

// goroutinesSettle waits for the goroutine count to come back to want.
func goroutinesSettle(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestHashJoinErrors checks that the hash join fails where NLJoin fails, with
// one text whichever way its left rows arrive — on the caller's goroutine and
// from a probe worker, which must not leave a goroutine behind — and that a
// failed join runs again after Close.
func TestHashJoinErrors(t *testing.T) {
	good := value.NewTuple("a", value.Int(1), "b", value.Int(1))
	rows := func(vs ...value.Value) *value.Set { return value.NewSet(vs...) }
	d := storage.NewMemDB(
		"L", rows(good, value.NewTuple("a", value.Int(2), "b", value.Int(0))),
		"NT", rows(good, value.Int(7)),
		"LN", rows(value.NewTuple("a", value.Int(1), "b", value.Int(1), "n", value.Int(1)), value.NewTuple("a", value.Int(2), "b", value.Int(0))),
		"R", rows(value.NewTuple("c", value.Int(1), "d", value.Int(1)), value.NewTuple("c", value.Int(2), "d", value.Int(0))),
		"RNT", rows(value.NewTuple("c", value.Int(1), "d", value.Int(1)), value.Int(7)),
		"LYS", rows(value.NewTuple("a", value.Int(1), "b", value.Int(1), "ys", value.Int(1))),
	)
	b := adl.Dot(adl.V("x"), "b")
	dd := adl.Dot(adl.V("y"), "d")
	one := adl.CInt(1)
	inv := func(e adl.Expr) adl.Expr { return &adl.Arith{Op: adl.Div, L: one, R: e} }
	cases := []struct {
		name, ltable, rtable string
		lkey, rkey           adl.Expr
		kind                 adl.JoinKind
	}{
		{"non-tuple left row", "NT", "R", b, dd, adl.Semi},
		{"non-tuple right row", "L", "RNT", b, dd, adl.Inner},
		{"missing left attribute", "LN", "R", adl.Dot(adl.V("x"), "n"), dd, adl.Inner},
		{"missing right attribute", "L", "R", b, adl.Dot(adl.V("y"), "nope"), adl.Anti},
		{"failing key scalar", "L", "R", b, inv(dd), adl.Outer},
		{"group attribute on the left row", "LYS", "R", b, dd, adl.NestJ},
	}
	for _, tc := range cases {
		lkey, rkey := NewScalar(tc.lkey, "x"), NewScalar(tc.rkey, "y")
		if _, err := Collect(equiOracle(tc.kind, &Scan{Table: tc.ltable}, tc.rtable, tc.lkey, tc.rkey, nil, nil), &Ctx{DB: d}); err == nil {
			t.Fatalf("%s: NLJoin must fail", tc.name)
		}
		var text string
		for arm, l := range leftArms(tc.ltable) {
			for _, parts := range []int{1, 3} {
				before := runtime.NumGoroutine()
				_, err := Collect(&HashJoin{Kind: tc.kind, L: l, R: &Scan{Table: tc.rtable}, LVar: "x", RVar: "y",
					LKey: lkey, RKey: rkey, As: "ys", Workers: parts}, &Ctx{DB: d})
				if text == "" && err != nil {
					text = err.Error()
				}
				if err == nil || err.Error() != text {
					t.Errorf("%s %s workers %d: %v, the others %q", tc.name, arm, parts, err, text)
				}
				if after := goroutinesSettle(before); after > before {
					t.Errorf("%s %s workers %d: %d goroutines before, %d after", tc.name, arm, parts, before, after)
				}
			}
		}
		if tc.kind == adl.NestJ && !strings.Contains(text, `duplicate attribute "ys"`) {
			t.Errorf("%s: %q", tc.name, text)
		}
	}

	// Re-Open after Close: one instance, failing run first.
	for _, parts := range []int{1, 3} {
		scan := colScan("NT", []string{"b"})
		hj := &HashJoin{Kind: adl.Semi, L: scan, R: &Scan{Table: "R"}, LVar: "x", RVar: "y",
			LKey: NewScalar(b, "x"), RKey: NewScalar(dd, "y"), Workers: parts}
		if _, err := Collect(hj, &Ctx{DB: d}); err == nil {
			t.Fatalf("workers %d: non-tuple probe row must fail", parts)
		}
		scan.Extent = "L"
		want := collect(t, equiOracle(adl.Semi, &Scan{Table: "L"}, "R", b, dd, nil, nil), d)
		for run := 0; run < 2; run++ {
			if got := rowFacade(t, hj, d); !value.Equal(got, want) {
				t.Errorf("workers %d run %d after Close: got %v want %v", parts, run, got, want)
			}
		}
	}
}

// antiResidualStore holds L(a, k) with one row whose key meets the build
// rows of R(c, rk, d) — one per given d, inserted in that order, all of one
// key — and one row that meets none; R.rk is indexed.
func antiResidualStore(t *testing.T, ds ...int64) *storage.Store {
	t.Helper()
	cat := schema.NewCatalog()
	for _, cl := range []*schema.Class{
		{Name: "Left", Extent: "L", IDField: "lid", Attrs: []schema.Attr{
			{Name: "a", Type: types.IntType}, {Name: "k", Type: types.IntType}}},
		{Name: "Right", Extent: "R", IDField: "rid", Attrs: []schema.Attr{
			{Name: "c", Type: types.IntType}, {Name: "rk", Type: types.IntType}, {Name: "d", Type: types.IntType}}},
	} {
		if err := cat.Define(cl); err != nil {
			t.Fatal(err)
		}
	}
	st := storage.New(cat)
	insert := func(extent string, row *value.Tuple) {
		if _, err := st.Insert(extent, row); err != nil {
			t.Fatal(err)
		}
	}
	insert("L", value.NewTuple("a", value.Int(1), "k", value.Int(5)))
	insert("L", value.NewTuple("a", value.Int(2), "k", value.Int(6)))
	for i, dv := range ds {
		insert("R", value.NewTuple("c", value.Int(int64(i)), "rk", value.Int(5), "d", value.Int(dv)))
	}
	if err := st.CreateIndex("R", "rk", storage.HashIndex); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAntiJoinStopsAtFirstMatch pins the one verdict: L ▷ R on a key with two
// build matches under the residual 1 / (y.d - 3) > 0. With d = 4 then 3 the
// first match passes, the left row is out, and no operator goes on to the
// pair that divides by zero; with d = 3 then 4 every operator fails on the
// first pair, with one text.
func TestAntiJoinStopsAtFirstMatch(t *testing.T) {
	x, y := adl.V("x"), adl.V("y")
	keyEq := adl.EqE(adl.Dot(x, "k"), adl.Dot(y, "rk"))
	resid := adl.CmpE(adl.Gt, &adl.Arith{Op: adl.Div, L: adl.CInt(1),
		R: &adl.Arith{Op: adl.Subtract, L: adl.Dot(y, "d"), R: adl.CInt(3)}}, adl.CInt(0))
	logical := adl.JoinE(adl.T("L"), "x", "y", adl.AndE(keyEq, resid), adl.T("R"))
	logical.Kind = adl.Anti
	lkey, rkey := NewScalar(adl.Dot(x, "k"), "x"), NewScalar(adl.Dot(y, "rk"), "y")
	res := NewScalar(resid, "x", "y")
	scan := func(n string) Operator { return &Scan{Table: n} }
	type arm struct {
		name string
		run  func(st *storage.Store) (*value.Set, error)
	}
	arms := []arm{
		{"eval.EvalSet", func(st *storage.Store) (*value.Set, error) { return eval.EvalSet(logical, nil, st) }},
		{"NLJoin", func(st *storage.Store) (*value.Set, error) {
			return Collect(&NLJoin{Kind: adl.Anti, L: scan("L"), R: scan("R"), LVar: "x", RVar: "y",
				Pred: NewScalar(logical.On, "x", "y")}, &Ctx{DB: st})
		}},
		{"HashJoin", func(st *storage.Store) (*value.Set, error) {
			return Collect(&HashJoin{Kind: adl.Anti, L: scan("L"), R: scan("R"), LVar: "x", RVar: "y",
				LKey: lkey, RKey: rkey, Residual: &res}, &Ctx{DB: st})
		}},
		{"IndexNLJoin", func(st *storage.Store) (*value.Set, error) {
			return Collect(&IndexNLJoin{Kind: adl.Anti, L: scan("L"), Table: "R", Attr: "rk",
				LVar: "x", RVar: "y", LKey: lkey, Residual: &res}, &Ctx{DB: st})
		}},
		{"HashJoin/workers-3", func(st *storage.Store) (*value.Set, error) {
			return Collect(&HashJoin{Kind: adl.Anti, L: scan("L"), R: scan("R"), LVar: "x", RVar: "y",
				LKey: lkey, RKey: rkey, Residual: &res, Workers: 3}, &Ctx{DB: st})
		}},
	}
	for _, parts := range []int{1, 3} {
		arms = append(arms, arm{fmt.Sprintf("HashJoin/batch/workers-%d", parts), func(st *storage.Store) (*value.Set, error) {
			return Collect(&HashJoin{Kind: adl.Anti, L: colScan("L", nil), R: scan("R"),
				LVar: "x", RVar: "y", LKey: lkey, RKey: rkey, Residual: &res, Workers: parts}, &Ctx{DB: st})
		}})
	}

	st := antiResidualStore(t, 4, 3)
	var want *value.Set
	for _, arm := range arms {
		got, err := arm.run(st)
		if err != nil {
			t.Errorf("%s: went on past the verdict: %v", arm.name, err)
			continue
		}
		if want == nil {
			want = got
		}
		if got.Len() != 1 || !value.Equal(got, want) {
			t.Errorf("%s: got %v, want the one unmatched row %v", arm.name, got, want)
		}
	}

	st = antiResidualStore(t, 3, 4)
	var text string
	for _, arm := range arms {
		_, err := arm.run(st)
		if err == nil {
			t.Errorf("%s: the first pair divides by zero and must fail", arm.name)
			continue
		}
		if text == "" {
			text = err.Error()
		}
		if err.Error() != text {
			t.Errorf("%s: error %q, the others %q", arm.name, err, text)
		}
	}
}

// refColumn is the set of elems with its reference column, as the store
// keeps a set of references (value.Set.CompactColumn).
func refColumn(t *testing.T, elems ...value.Value) *value.Set {
	t.Helper()
	s := value.NewSet(elems...).CompactColumn()
	if s == nil {
		t.Fatalf("%v form no reference column", elems)
	}
	return s
}

// setMember is the oracle of the hash join on membership (HashJoin.In):
// NLJoin over the predicate key(y) ∈ x.attr, which shares no code with the
// joinTable it builds and probes.
func setMember(kind adl.JoinKind, left, right, attr string, rkey adl.Expr, rfun *Scalar) *NLJoin {
	pred := adl.CmpE(adl.In, rkey, adl.Dot(adl.V("x"), attr))
	return &NLJoin{Kind: kind, L: &Scan{Table: left}, R: &Scan{Table: right}, LVar: "x", RVar: "y",
		Pred: NewScalar(pred, "x", "y"), As: "ys", RFun: rfun}
}

// TestSetProbeJoinAgainstNLJoin checks the hash join on membership against the NLJoin
// oracle: semi, anti and the nestjoin with and without its right-tuple
// function × the generic table (whole-element keys, plain int elements under
// an atomic key, unary tuples over a string, unary tuples over mixed Int/OID
// keys) and the int table (computed and subscript-read keys) × elements
// it must decline although their bits equal a key's (another attribute name,
// another kind, non-tuples), elements of four layouts, sets with a reference
// column of the key's shape, of another shape or kind, against atomic keys
// and against a value.Index table, dangling oids, empty sets and an empty
// build side × left rows from a Scan and from a ColumnScan × 1, 2 and 5
// workers: the same rows in the same order.
func TestSetProbeJoinAgainstNLJoin(t *testing.T) {
	// Owners hold sets of ⟨k:int⟩ refs, of plain ints, of ⟨t:string⟩ refs and
	// of decoys that only some owners pair with a real match; items carry
	// even keys only, so some owners hit and some miss. Owner 4's sets are
	// all empty.
	owners := value.EmptySet()
	for i := 0; i < 9; i++ {
		parts, refs, tags := value.EmptySet(), value.EmptySet(), value.EmptySet()
		names, kinds, plain, danglers, mixed := value.EmptySet(), value.EmptySet(), value.EmptySet(), value.EmptySet(), value.EmptySet()
		var layouts, cols, jcols, ocols, acols, mcols value.Value = value.EmptySet(), value.EmptySet(),
			value.EmptySet(), value.EmptySet(), value.EmptySet(), value.EmptySet()
		for j := 0; j <= i%4; j++ {
			refs.Add(value.Int(int64(3*i + j)))
		}
		if i != 4 {
			parts.Add(value.NewTuple("k", value.Int(int64(i))))
			parts.Add(value.NewTuple("k", value.Int(int64(i+4))))
			tags.Add(value.NewTuple("t", value.String(fmt.Sprintf("t%d", i%3))))
			key := int64(2 * (i % 5))
			hit := value.NewTuple("k", value.Int(key))
			names.Add(value.NewTuple("j", value.Int(key)))
			kinds.Add(value.NewTuple("k", value.String(fmt.Sprint(key))))
			kinds.Add(value.NewTuple("k", value.OID(key)))
			plain.Add(value.Int(key))
			switch i % 3 {
			case 0:
				names.Add(hit)
			case 1:
				kinds.Add(hit)
			default:
				plain.Add(hit)
			}
			danglers.Add(value.OID(1<<40 + i))
			danglers.Add(value.NewTuple("o", value.OID(1<<40+i)))
			if i%2 == 0 {
				danglers.Add(value.NewTuple("o", value.OID(int64(100+i%3))))
			}
			// ⟨m:i⟩ meets the item whose m is Int(i) or OID(i) by bits alone.
			mixed.Add(value.NewTuple("m", value.Int(int64(i))))
			if i%3 == 0 {
				mixed.Add(value.NewTuple("m", value.OID(int64(i))))
			}
			// Elements of four layouts, of which only ⟨k⟩ meets a key.
			l := value.NewSet(value.NewTuple("k", value.Int(key), "w", value.Int(1)),
				value.NewTuple("j", value.Int(key)), value.Int(key))
			// Sets with a reference column (as the store keeps them): even
			// owners' columns hold a hit's bits under another shape (jcols),
			// kind (ocols) or as a tuple against atomic keys (acols), odd
			// owners' a hit; mcols probes a value.Index table.
			k, j, o := value.NewTuple("k", value.Int(key)), value.NewTuple("j", value.Int(key)), value.NewTuple("k", value.OID(key))
			cols, jcols, ocols, acols = refColumn(t, k), refColumn(t, k), refColumn(t, k), value.NewSet(value.Int(key))
			if i%2 == 0 {
				l.Add(k)
				cols, jcols, ocols, acols = refColumn(t, k, value.NewTuple("k", value.Int(key+1))), refColumn(t, j), refColumn(t, o), refColumn(t, k)
			} else {
				cols = refColumn(t, value.NewTuple("k", value.Int(key+1)))
			}
			layouts, mcols = l, refColumn(t, value.NewTuple("m", value.Int(int64(i))))
		}
		owners.Add(value.NewTuple("a", value.Int(int64(i)), "parts", parts, "refs", refs, "tags", tags,
			"names", names, "kinds", kinds, "plain", plain, "danglers", danglers, "mixed", mixed,
			"layouts", layouts, "cols", cols, "jcols", jcols, "ocols", ocols, "acols", acols, "mcols", mcols))
	}
	items := value.EmptySet()
	for i := 0; i < 7; i++ {
		var m value.Value = value.Int(int64(i))
		if i%2 == 1 {
			m = value.OID(int64(i))
		}
		items.Add(value.NewTuple("k", value.Int(int64(2*(i%6))), "c", value.Int(int64(i)),
			"t", value.String(fmt.Sprintf("t%d", i%2)), "o", value.OID(int64(100+i%3)), "m", m))
	}
	// U's rows are unary tuples under two names: as whole-row keys they are
	// not one fast-path shape.
	unary := value.NewSet(value.NewTuple("k", value.Int(0)), value.NewTuple("k", value.Int(2)),
		value.NewTuple("j", value.Int(4)), value.NewTuple("j", value.Int(6)))
	fixed := storage.NewMemDB("O", owners, "I", items, "E", value.EmptySet(), "U", unary)
	y := adl.V("y")
	type shape struct {
		name        string
		d           *storage.MemDB
		left, right string
		attr        string
		rkey        adl.Expr
	}
	cases := []shape{
		{"unary-int-subscript", fixed, "O", "I", "parts", adl.SubT(y, "k")},
		{"unary-int-computed", fixed, "O", "I", "parts", adl.Tup("k", adl.Dot(y, "k"))},
		{"unary-string-generic", fixed, "O", "I", "tags", adl.SubT(y, "t")},
		{"atomic-key-generic", fixed, "O", "I", "refs", adl.Dot(y, "k")},
		{"other-name-declines", fixed, "O", "I", "names", adl.SubT(y, "k")},
		{"other-kind-declines", fixed, "O", "I", "kinds", adl.SubT(y, "k")},
		{"non-tuple-elements-decline", fixed, "O", "I", "plain", adl.SubT(y, "k")},
		{"dangling-oid", fixed, "O", "I", "danglers", adl.SubT(y, "o")},
		{"mixed-int-oid-keys", fixed, "O", "I", "mixed", adl.SubT(y, "m")},
		{"mixed-int-oid-keys-computed", fixed, "O", "I", "mixed", adl.Tup("m", adl.Dot(y, "m"))},
		{"unary-keys-two-names", fixed, "O", "U", "names", y},
		{"mixed-layouts", fixed, "O", "I", "layouts", adl.SubT(y, "k")},
		{"column", fixed, "O", "I", "cols", adl.SubT(y, "k")},
		{"column-other-shape", fixed, "O", "I", "jcols", adl.SubT(y, "k")},
		{"column-other-kind", fixed, "O", "I", "ocols", adl.SubT(y, "k")},
		{"column-atomic-keys", fixed, "O", "I", "acols", adl.Dot(y, "k")},
		{"column-generic-table", fixed, "O", "I", "mcols", adl.SubT(y, "m")},
		{"empty-build", fixed, "O", "E", "parts", adl.SubT(y, "k")},
	}
	wholeKey := adl.Tup("k", adl.Dot(y, "d"), "w", adl.Dot(y, "c"))
	for seed := int64(1); seed <= 3; seed++ {
		cases = append(cases, shape{fmt.Sprintf("whole-element-seed-%d", seed), db(seed, 15, 80), "N", "R", "parts", wholeKey})
	}
	for _, tc := range cases {
		rkey := NewScalar(tc.rkey, "y")
		sawHit, sawMiss := false, false
		for _, kc := range joinKindCases() {
			if kc.kind == adl.Inner || kc.kind == adl.Outer || (kc.rfun != nil && tc.right == "U") {
				continue // U's rows have no y.c
			}
			want := streamed(t, setMember(kc.kind, tc.left, tc.right, tc.attr, tc.rkey, kc.rfun), tc.d)
			if kc.kind == adl.Semi {
				sawHit, sawMiss = len(want) > 0, len(want) < collect(t, &Scan{Table: tc.left}, tc.d).Len()
			}
			for arm, l := range leftArms(tc.left) {
				for _, w := range []int{1, 2, 5} {
					sj := &HashJoin{Kind: kc.kind, L: l, R: &Scan{Table: tc.right},
						In: tc.attr, RKey: rkey, As: "ys", RFun: kc.rfun, Workers: w}
					if got := streamed(t, sj, tc.d); !sameRows(got, want) {
						t.Errorf("%s %s %s workers %d: got %v want %v", tc.name, kc.name, arm, w, got, want)
					}
				}
			}
		}
		if tc.right != "E" && !(sawHit && sawMiss) {
			t.Errorf("%s: semijoin hit=%v miss=%v, the case must see both", tc.name, sawHit, sawMiss)
		}
	}

	// Error parity between the two ways left rows arrive and across 1, 2 and
	// 5 workers, where the oracle fails too (it has a rule for every kind, so
	// not the unsupported one), then a second run of the failed instance
	// after Close.
	subKey := NewScalar(adl.SubT(y, "k"), "y")
	bad := value.NewSet(value.NewTuple("a", value.Int(1), "parts", value.EmptySet()), value.Int(7))
	dup := value.NewSet(value.NewTuple("ys", value.Int(1), "parts", value.EmptySet()))
	ed := storage.NewMemDB("O", owners, "I", items, "NT", bad, "DUP", dup)
	for _, tc := range []struct {
		name, left, attr string
		kind             adl.JoinKind
		rkey             Scalar
	}{
		{"non-set attribute", "O", "a", adl.Semi, subKey},
		{"missing attribute", "O", "nope", adl.Anti, subKey},
		{"non-tuple row", "NT", "parts", adl.NestJ, subKey},
		{"group attribute on the left row", "DUP", "parts", adl.NestJ, subKey},
		{"failing key scalar", "O", "parts", adl.Semi, NewScalar(adl.Dot(y, "nope"), "y")},
		{"unsupported kind", "O", "parts", adl.Inner, subKey},
	} {
		_, werr := Collect(&HashJoin{Kind: tc.kind, L: &Scan{Table: tc.left}, R: &Scan{Table: "I"},
			In: tc.attr, RKey: tc.rkey, As: "ys"}, &Ctx{DB: ed})
		scan := colScan(tc.left, nil)
		vj := &HashJoin{Kind: tc.kind, L: scan, R: &Scan{Table: "I"}, In: tc.attr, RKey: tc.rkey, As: "ys"}
		for _, w := range []int{1, 2, 5} {
			for arm, l := range map[string]Operator{"Scan": &Scan{Table: tc.left}, "ColumnScan": scan} {
				_, gerr := Collect(&HashJoin{Kind: tc.kind, L: l, R: &Scan{Table: "I"}, In: tc.attr, RKey: tc.rkey,
					As: "ys", Workers: w}, &Ctx{DB: ed})
				if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
					t.Errorf("%s: %s on %d workers %v, Scan on one %v", tc.name, arm, w, gerr, werr)
				}
			}
		}
		if tc.left == "DUP" && (werr == nil || !strings.Contains(werr.Error(), `duplicate attribute "ys"`)) {
			t.Errorf("%s: %v", tc.name, werr)
		}
		if tc.kind != adl.Inner {
			if _, oerr := Collect(setMember(tc.kind, tc.left, "I", tc.attr, tc.rkey.Expr, nil), &Ctx{DB: ed}); oerr == nil {
				t.Errorf("%s: the oracle succeeded where the membership joins fail", tc.name)
			}
		}
		if tc.name != "non-tuple row" {
			continue
		}
		scan.Extent = "O"
		want := collect(t, setMember(tc.kind, "O", "I", tc.attr, tc.rkey.Expr, nil), ed)
		if got := rowFacade(t, vj, ed); !value.Equal(got, want) {
			t.Errorf("re-Open after a failed run: got %v want %v", got, want)
		}
	}
}

// TestEmptyRightUnnestAllocations pins the μ-fused ⋉ over an empty right
// operand: it checks every row and element as μ does but builds no unnested
// row, so a run allocates no more than its two scans do, at 10 rows as at
// 1 000 (4 000 elements).
func TestEmptyRightUnnestAllocations(t *testing.T) {
	for _, n := range []int{10, 1000} {
		rows := make([]value.Value, n)
		for i := range rows {
			ps := make([]value.Value, 4)
			for e := range ps {
				ps[e] = value.NewTuple("k", value.Int(int64(4*i+e)))
			}
			rows[i] = value.NewTuple("a", value.Int(int64(i)), "ps", value.NewSet(ps...))
		}
		d := storage.NewMemDB("L", value.NewSet(rows...), "E", value.EmptySet())
		ctx := &Ctx{DB: d}
		join := &HashJoin{Kind: adl.Semi, L: &Scan{Table: "L"}, R: &Scan{Table: "E"}, LVar: "x", RVar: "y",
			LKey: NewScalar(adl.Dot(adl.V("x"), "k"), "x"), RKey: NewScalar(adl.Dot(adl.V("y"), "d"), "y"), Unnest: "ps"}
		scans := testing.AllocsPerRun(10, func() {
			for _, table := range []string{"L", "E"} {
				if _, err := drain(&Scan{Table: table}, ctx); err != nil {
					t.Fatal(err)
				}
			}
		})
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := join.Open(ctx); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > scans {
			t.Errorf("%d rows: %.0f allocations per run, its scans %.0f", n, allocs, scans)
		}
		t.Logf("%d rows: %.0f allocations per run, its scans %.0f", n, allocs, scans)
	}
}
