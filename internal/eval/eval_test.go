package eval

import (
	"strings"
	"testing"

	"repro/internal/adl"
	"repro/internal/storage"
	"repro/internal/value"
)

// figure2DB returns the paper's Figure 2 example tables:
//
//	X = {⟨a=1, c={⟨d=1,e=1⟩, ⟨d=1,e=2⟩}⟩, ⟨a=2, c=∅⟩, ⟨a=3, c={⟨d=2,e=3⟩}⟩}
//	Y = {⟨d=1,e=1⟩, ⟨d=1,e=2⟩, ⟨d=1,e=3⟩, ⟨d=3,e=3⟩}
func figure2DB() *storage.MemDB {
	de := func(d, e int64) *value.Tuple {
		return value.NewTuple("d", value.Int(d), "e", value.Int(e))
	}
	x := value.NewSet(
		value.NewTuple("a", value.Int(1), "c", value.NewSet(de(1, 1), de(1, 2))),
		value.NewTuple("a", value.Int(2), "c", value.EmptySet()),
		value.NewTuple("a", value.Int(3), "c", value.NewSet(de(2, 3))),
	)
	y := value.NewSet(de(1, 1), de(1, 2), de(1, 3), de(3, 3))
	return storage.NewMemDB("X", x, "Y", y)
}

func mustEval(t *testing.T, e adl.Expr, db DB) value.Value {
	t.Helper()
	v, err := Eval(e, nil, db)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return v
}

func evalErr(t *testing.T, e adl.Expr, db DB) error {
	t.Helper()
	_, err := Eval(e, nil, db)
	if err == nil {
		t.Fatalf("Eval(%s): expected error", e)
	}
	return err
}

func TestConstVarTable(t *testing.T) {
	db := figure2DB()
	if v := mustEval(t, adl.CInt(42), db); !value.Equal(v, value.Int(42)) {
		t.Errorf("const = %v", v)
	}
	env := (*Env)(nil).Bind("x", value.Int(7))
	v, err := Eval(adl.V("x"), env, db)
	if err != nil || !value.Equal(v, value.Int(7)) {
		t.Errorf("var = %v, %v", v, err)
	}
	if _, err := Eval(adl.V("nope"), env, db); err == nil {
		t.Errorf("unbound var must fail")
	}
	tab := mustEval(t, adl.T("Y"), db)
	if tab.(*value.Set).Len() != 4 {
		t.Errorf("table Y = %v", tab)
	}
	evalErr(t, adl.T("NOPE"), db)
}

// TestFlatten exercises semantics rule 1: ∪(e) = {z | z ∈ Z ∧ Z ∈ e}.
func TestFlatten(t *testing.T) {
	db := figure2DB()
	// flatten(α[x : x.c](X)) = union of all c-sets.
	e := adl.Flat(adl.MapE("x", adl.Dot(adl.V("x"), "c"), adl.T("X")))
	got := mustEval(t, e, db)
	de := func(d, e int64) *value.Tuple {
		return value.NewTuple("d", value.Int(d), "e", value.Int(e))
	}
	want := value.NewSet(de(1, 1), de(1, 2), de(2, 3))
	if !value.Equal(got, want) {
		t.Errorf("flatten = %v, want %v", got, want)
	}
	evalErr(t, adl.Flat(adl.T("Y")), db) // elements are tuples, not sets
}

// TestSubscript exercises semantics rule 2: e[a1,...,an].
func TestSubscript(t *testing.T) {
	db := figure2DB()
	env := (*Env)(nil).Bind("t", value.NewTuple("a", value.Int(1), "b", value.Int(2), "c", value.Int(3)))
	v, err := Eval(adl.SubT(adl.V("t"), "c", "a"), env, db)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(v, value.NewTuple("a", value.Int(1), "c", value.Int(3))) {
		t.Errorf("subscript = %v", v)
	}
	if _, err := Eval(adl.SubT(adl.V("t"), "zz"), env, db); err == nil {
		t.Errorf("missing attribute must fail")
	}
}

// TestExcept exercises semantics rule 3: update, keep, extend.
func TestExcept(t *testing.T) {
	db := figure2DB()
	env := (*Env)(nil).Bind("t", value.NewTuple("a", value.Int(1), "b", value.Int(2)))
	e := adl.Exc(adl.V("t"), "a", adl.CInt(10), "z", adl.CInt(9))
	v, err := Eval(e, env, db)
	if err != nil {
		t.Fatal(err)
	}
	want := value.NewTuple("a", value.Int(10), "b", value.Int(2), "z", value.Int(9))
	if !value.Equal(v, want) {
		t.Errorf("except = %v, want %v", v, want)
	}
	// The update expressions may reference the tuple being updated.
	e2 := adl.Exc(adl.V("t"), "a", &adl.Arith{Op: adl.Add, L: adl.Dot(adl.V("t"), "a"), R: adl.CInt(5)})
	v2, err := Eval(e2, env, db)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := v2.(*value.Tuple).Get("a"); !value.Equal(got, value.Int(6)) {
		t.Errorf("self-referencing except = %v", v2)
	}
}

// TestMap exercises semantics rule 4, including deduplication (map yields a set).
func TestMap(t *testing.T) {
	db := figure2DB()
	// α[y : y.d](Y) = {1, 3}: three tuples share d=1.
	got := mustEval(t, adl.MapE("y", adl.Dot(adl.V("y"), "d"), adl.T("Y")), db)
	if !value.Equal(got, value.NewSet(value.Int(1), value.Int(3))) {
		t.Errorf("map dedup = %v", got)
	}
	// Map can build complex results: α[y : ⟨k = y.d, s = {y.e}⟩](Y).
	e := adl.MapE("y", adl.Tup("k", adl.Dot(adl.V("y"), "d"), "s", adl.SetOf(adl.Dot(adl.V("y"), "e"))), adl.T("Y"))
	got2 := mustEval(t, e, db).(*value.Set)
	if got2.Len() != 4 {
		t.Errorf("complex map = %v", got2)
	}
}

// TestSelect exercises semantics rule 5.
func TestSelect(t *testing.T) {
	db := figure2DB()
	e := adl.Sel("y", adl.EqE(adl.Dot(adl.V("y"), "d"), adl.CInt(1)), adl.T("Y"))
	got := mustEval(t, e, db).(*value.Set)
	if got.Len() != 3 {
		t.Errorf("select = %v", got)
	}
	// Non-boolean predicate is a type error.
	bad := adl.Sel("y", adl.CInt(1), adl.T("Y"))
	evalErr(t, bad, db)
}

// TestProject exercises semantics rule 6 (with set semantics collapsing
// duplicates).
func TestProject(t *testing.T) {
	db := figure2DB()
	got := mustEval(t, adl.Proj(adl.T("Y"), "d"), db)
	want := value.NewSet(value.NewTuple("d", value.Int(1)), value.NewTuple("d", value.Int(3)))
	if !value.Equal(got, want) {
		t.Errorf("project = %v, want %v", got, want)
	}
}

// TestUnnest exercises semantics rule 7, including the silent loss of tuples
// with empty set-valued attributes.
func TestUnnest(t *testing.T) {
	db := figure2DB()
	got := mustEval(t, adl.Mu("c", adl.T("X")), db).(*value.Set)
	// a=1 contributes 2 tuples, a=2 contributes none (c=∅), a=3 contributes 1.
	if got.Len() != 3 {
		t.Fatalf("unnest size = %d: %v", got.Len(), got)
	}
	for _, el := range got.Elems() {
		tup := el.(*value.Tuple)
		if value.Equal(tup.MustGet("a"), value.Int(2)) {
			t.Errorf("tuple with empty c must be lost by μ, got %v", tup)
		}
		if tup.Len() != 3 { // d, e, a
			t.Errorf("unnested tuple shape: %v", tup)
		}
	}
}

// TestNest exercises semantics rule 8 and checks ν ∘ μ behaviour on PNF
// relations (nest undoes unnest only when no empty sets were lost).
func TestNest(t *testing.T) {
	db := figure2DB()
	// ν over the unnested X: μ then ν loses ⟨a=2, c=∅⟩.
	e := adl.Nu(adl.Mu("c", adl.T("X")), "c", "d", "e")
	got := mustEval(t, e, db).(*value.Set)
	if got.Len() != 2 {
		t.Fatalf("nest(unnest) = %v", got)
	}
	x, _ := db.Table("X")
	if got.Contains(value.NewTuple("a", value.Int(2), "c", value.EmptySet())) {
		t.Errorf("ν(μ(X)) must lose the empty-set tuple (PNF caveat)")
	}
	// All other tuples are recovered.
	for _, el := range got.Elems() {
		if !x.Contains(el) {
			t.Errorf("ν(μ(X)) invented tuple %v", el)
		}
	}
}

func TestNestGroupsByRemainingAttributes(t *testing.T) {
	// ν_{e→es}(Y) groups by d.
	db := figure2DB()
	got := mustEval(t, adl.Nu(adl.T("Y"), "es", "e"), db)
	want := value.NewSet(
		value.NewTuple("d", value.Int(1), "es", value.NewSet(
			value.NewTuple("e", value.Int(1)), value.NewTuple("e", value.Int(2)), value.NewTuple("e", value.Int(3)))),
		value.NewTuple("d", value.Int(3), "es", value.NewSet(value.NewTuple("e", value.Int(3)))),
	)
	if !value.Equal(got, want) {
		t.Errorf("nest = %v, want %v", got, want)
	}
}

// TestJoins exercises semantics rules 10-12.
func TestJoins(t *testing.T) {
	db := figure2DB()
	on := adl.EqE(adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "d"))

	// Regular join: a=1 matches three Y tuples, a=3 matches one.
	inner := mustEval(t, adl.JoinE(adl.T("X"), "x", "y", on, adl.T("Y")), db).(*value.Set)
	if inner.Len() != 4 {
		t.Errorf("inner join size = %d, want 4", inner.Len())
	}

	// Semijoin: left tuples with at least one match.
	semi := mustEval(t, adl.SemiJoin(adl.T("X"), "x", "y", on, adl.T("Y")), db).(*value.Set)
	if semi.Len() != 2 {
		t.Errorf("semijoin size = %d, want 2", semi.Len())
	}
	for _, el := range semi.Elems() {
		a := el.(*value.Tuple).MustGet("a")
		if value.Equal(a, value.Int(2)) {
			t.Errorf("a=2 has no match and must not appear in semijoin")
		}
	}

	// Antijoin: left tuples with no match.
	anti := mustEval(t, adl.AntiJoin(adl.T("X"), "x", "y", on, adl.T("Y")), db).(*value.Set)
	if anti.Len() != 1 {
		t.Fatalf("antijoin size = %d, want 1", anti.Len())
	}
	if a := anti.Elems()[0].(*value.Tuple).MustGet("a"); !value.Equal(a, value.Int(2)) {
		t.Errorf("antijoin kept %v, want a=2", a)
	}

	// Semijoin ∪ antijoin = left operand.
	x, _ := db.Table("X")
	if !value.Equal(semi.Union(anti), x) {
		t.Errorf("⋉ ∪ ▷ must partition the left operand")
	}
}

// TestNestjoin exercises Definition 1 (§6.1) on the Figure 3 example shape.
func TestNestjoin(t *testing.T) {
	xyz := storage.NewMemDB(
		"X", value.NewSet(
			value.NewTuple("a", value.Int(1), "b", value.Int(1)),
			value.NewTuple("a", value.Int(2), "b", value.Int(1)),
			value.NewTuple("a", value.Int(3), "b", value.Int(3))),
		"Y", value.NewSet(
			value.NewTuple("c", value.Int(1), "d", value.Int(1)),
			value.NewTuple("c", value.Int(2), "d", value.Int(1)),
			value.NewTuple("c", value.Int(3), "d", value.Int(2))),
	)
	on := adl.EqE(adl.Dot(adl.V("x"), "b"), adl.Dot(adl.V("y"), "d"))
	got := mustEval(t, adl.NestJoin(adl.T("X"), "x", "y", on, "ys", adl.T("Y")), xyz).(*value.Set)
	if got.Len() != 3 {
		t.Fatalf("nestjoin size = %d, want 3 (dangling preserved)", got.Len())
	}
	matches := value.NewSet(
		value.NewTuple("c", value.Int(1), "d", value.Int(1)),
		value.NewTuple("c", value.Int(2), "d", value.Int(1)))
	want := value.NewSet(
		value.NewTuple("a", value.Int(1), "b", value.Int(1), "ys", matches),
		value.NewTuple("a", value.Int(2), "b", value.Int(1), "ys", matches),
		value.NewTuple("a", value.Int(3), "b", value.Int(3), "ys", value.EmptySet()),
	)
	if !value.Equal(got, want) {
		t.Errorf("nestjoin = %v, want %v", got, want)
	}
}

func TestNestjoinWithRFun(t *testing.T) {
	// Extended nestjoin: collect G(x,y) = y.e instead of whole right tuples.
	db := figure2DB()
	on := adl.EqE(adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "d"))
	e := adl.NestJoinF(adl.T("X"), "x", "y", on, adl.Dot(adl.V("y"), "e"), "es", adl.T("Y"))
	got := mustEval(t, e, db).(*value.Set)
	for _, el := range got.Elems() {
		tup := el.(*value.Tuple)
		a := tup.MustGet("a").(value.Int)
		es := tup.MustGet("es").(*value.Set)
		switch a {
		case 1:
			if !value.Equal(es, value.NewSet(value.Int(1), value.Int(2), value.Int(3))) {
				t.Errorf("a=1 es = %v", es)
			}
		case 2:
			if es.Len() != 0 {
				t.Errorf("a=2 es = %v, want ∅", es)
			}
		case 3:
			if !value.Equal(es, value.NewSet(value.Int(3))) {
				t.Errorf("a=3 es = %v, want {3}", es)
			}
		}
	}
}

func TestOuterJoinPadsWithNull(t *testing.T) {
	db := figure2DB()
	on := adl.EqE(adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "d"))
	got := mustEval(t, adl.OuterJoin(adl.T("X"), "x", "y", on, adl.T("Y")), db).(*value.Set)
	// 4 matched tuples + 1 null-padded dangling tuple (a=2).
	if got.Len() != 5 {
		t.Fatalf("outer join size = %d, want 5", got.Len())
	}
	foundNull := false
	for _, el := range got.Elems() {
		tup := el.(*value.Tuple)
		if value.Equal(tup.MustGet("a"), value.Int(2)) {
			foundNull = true
			if tup.MustGet("d").Kind() != value.KindNull || tup.MustGet("e").Kind() != value.KindNull {
				t.Errorf("dangling tuple not null-padded: %v", tup)
			}
		}
	}
	if !foundNull {
		t.Errorf("outer join lost the dangling tuple")
	}
}

func TestQuantifiers(t *testing.T) {
	db := figure2DB()
	// ∃y ∈ Y • y.d = 3 is true; ∀y ∈ Y • y.d = 1 is false.
	ex := adl.Ex("y", adl.T("Y"), adl.EqE(adl.Dot(adl.V("y"), "d"), adl.CInt(3)))
	if v := mustEval(t, ex, db); !value.Truth(v) {
		t.Errorf("∃ = %v", v)
	}
	all := adl.All("y", adl.T("Y"), adl.EqE(adl.Dot(adl.V("y"), "d"), adl.CInt(1)))
	if v := mustEval(t, all, db); value.Truth(v) {
		t.Errorf("∀ = %v", v)
	}
	// Over the empty range: ∃ false, ∀ true (the paper leans on this).
	if v := mustEval(t, adl.Ex("y", adl.SetOf(), adl.CBool(true)), db); value.Truth(v) {
		t.Errorf("∃ over ∅ must be false")
	}
	if v := mustEval(t, adl.All("y", adl.SetOf(), adl.CBool(false)), db); !value.Truth(v) {
		t.Errorf("∀ over ∅ must be true")
	}
}

func TestAggregates(t *testing.T) {
	db := figure2DB()
	set := adl.SetOf(adl.CInt(1), adl.CInt(2), adl.CInt(3))
	cases := []struct {
		op   adl.AggOp
		want value.Value
	}{
		{adl.Count, value.Int(3)},
		{adl.Sum, value.Int(6)},
		{adl.Min, value.Int(1)},
		{adl.Max, value.Int(3)},
		{adl.Avg, value.Float(2)},
	}
	for _, c := range cases {
		if got := mustEval(t, adl.AggE(c.op, set), db); !value.Equal(got, c.want) {
			t.Errorf("%s = %v, want %v", c.op, got, c.want)
		}
	}
	// count(∅) = 0, sum(∅) = 0, min(∅) errors.
	if got := mustEval(t, adl.AggE(adl.Count, adl.SetOf()), db); !value.Equal(got, value.Int(0)) {
		t.Errorf("count(∅) = %v", got)
	}
	if got := mustEval(t, adl.AggE(adl.Sum, adl.SetOf()), db); !value.Equal(got, value.Int(0)) {
		t.Errorf("sum(∅) = %v", got)
	}
	evalErr(t, adl.AggE(adl.Min, adl.SetOf()), db)
}

func TestSetComparisons(t *testing.T) {
	db := figure2DB()
	s12 := adl.SetOf(adl.CInt(1), adl.CInt(2))
	s123 := adl.SetOf(adl.CInt(1), adl.CInt(2), adl.CInt(3))
	cases := []struct {
		e    adl.Expr
		want bool
	}{
		{adl.CmpE(adl.In, adl.CInt(1), s12), true},
		{adl.CmpE(adl.In, adl.CInt(9), s12), false},
		{adl.CmpE(adl.SubEq, s12, s123), true},
		{adl.CmpE(adl.Sub, s12, s123), true},
		{adl.CmpE(adl.Sub, s123, s123), false},
		{adl.CmpE(adl.SubEq, s123, s123), true},
		{adl.CmpE(adl.SupEq, s123, s12), true},
		{adl.CmpE(adl.Sup, s123, s12), true},
		{adl.CmpE(adl.Sup, s12, s123), false},
		{adl.EqE(s12, adl.SetOf(adl.CInt(2), adl.CInt(1))), true},
		{adl.CmpE(adl.Has, adl.SetOf(s12), adl.SetOf(adl.CInt(2), adl.CInt(1))), true},
		{adl.CmpE(adl.Has, adl.SetOf(s123), s12), false},
		{adl.CmpE(adl.Ne, s12, s123), true},
	}
	for _, c := range cases {
		got := mustEval(t, c.e, db)
		if value.Truth(got) != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
	// Kind errors.
	evalErr(t, adl.CmpE(adl.In, adl.CInt(1), adl.CInt(2)), db)
	evalErr(t, adl.CmpE(adl.SubEq, adl.CInt(1), s12), db)
	evalErr(t, adl.CmpE(adl.Has, adl.CInt(1), s12), db)
	evalErr(t, adl.CmpE(adl.Lt, adl.CInt(1), adl.CStr("x")), db)
}

func TestOrderedComparisons(t *testing.T) {
	db := figure2DB()
	cases := []struct {
		e    adl.Expr
		want bool
	}{
		{adl.CmpE(adl.Lt, adl.CInt(1), adl.CInt(2)), true},
		{adl.CmpE(adl.Le, adl.CInt(2), adl.CInt(2)), true},
		{adl.CmpE(adl.Gt, adl.CStr("b"), adl.CStr("a")), true},
		{adl.CmpE(adl.Ge, adl.C(value.Date(940102)), adl.C(value.Date(940101))), true},
		{adl.CmpE(adl.Lt, adl.C(value.Float(1.5)), adl.C(value.Float(2.5))), true},
	}
	for _, c := range cases {
		if got := mustEval(t, c.e, db); value.Truth(got) != c.want {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestLogicShortCircuits(t *testing.T) {
	db := figure2DB()
	// (false ∧ <error>) must not evaluate the right side.
	bad := adl.CmpE(adl.In, adl.CInt(1), adl.CInt(1))
	if v := mustEval(t, adl.AndE(adl.CBool(false), bad), db); value.Truth(v) {
		t.Errorf("short-circuit ∧ broken")
	}
	if v := mustEval(t, adl.OrE(adl.CBool(true), bad), db); !value.Truth(v) {
		t.Errorf("short-circuit ∨ broken")
	}
	if v := mustEval(t, adl.NotE(adl.CBool(false)), db); !value.Truth(v) {
		t.Errorf("¬ broken")
	}
}

func TestLetWithConstruct(t *testing.T) {
	db := figure2DB()
	// with Y′ = σ[y : y.d = 1](Y): count(Y′) = 3.
	e := adl.LetE("Yp",
		adl.Sel("y", adl.EqE(adl.Dot(adl.V("y"), "d"), adl.CInt(1)), adl.T("Y")),
		adl.AggE(adl.Count, adl.V("Yp")))
	if got := mustEval(t, e, db); !value.Equal(got, value.Int(3)) {
		t.Errorf("let = %v", got)
	}
}

func TestImplicitPointerNavigation(t *testing.T) {
	db := storage.NewMemDB("D", value.NewSet(
		value.NewTuple("did", value.OID(1), "supplier", value.OID(10)),
	))
	db.Objs[10] = value.NewTuple("eid", value.OID(10), "sname", value.String("s1"))
	// d.supplier.sname follows the oid.
	e := adl.MapE("d", adl.Dot(adl.V("d"), "supplier", "sname"), adl.T("D"))
	got := mustEval(t, e, db)
	if !value.Equal(got, value.NewSet(value.String("s1"))) {
		t.Errorf("path expression = %v", got)
	}
	// Dangling reference errors.
	db2 := storage.NewMemDB("D", value.NewSet(
		value.NewTuple("did", value.OID(1), "supplier", value.OID(99)),
	))
	evalErr(t, adl.MapE("d", adl.Dot(adl.V("d"), "supplier", "sname"), adl.T("D")), db2)
}

// TestSFWTranslationShape checks the §3 translation target directly:
// select e1 from x in e2 where e3 ≡ α[x : e1](σ[x : e3](e2)).
func TestSFWTranslationShape(t *testing.T) {
	db := figure2DB()
	// select y.e from y in Y where y.d = 1
	e := adl.MapE("y", adl.Dot(adl.V("y"), "e"),
		adl.Sel("y", adl.EqE(adl.Dot(adl.V("y"), "d"), adl.CInt(1)), adl.T("Y")))
	got := mustEval(t, e, db)
	want := value.NewSet(value.Int(1), value.Int(2), value.Int(3))
	if !value.Equal(got, want) {
		t.Errorf("sfw = %v, want %v", got, want)
	}
}

// TestFigure2NestedQuery evaluates the Figure 2 nested query under
// nested-loop semantics — the ground truth the Complex Object bug is
// measured against.
func TestFigure2NestedQuery(t *testing.T) {
	db := figure2DB()
	// σ[x : x.c ⊆ σ[y : x.a = y.d](Y)](X)
	inner := adl.Sel("y", adl.EqE(adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "d")), adl.T("Y"))
	e := adl.Sel("x", adl.CmpE(adl.SubEq, adl.Dot(adl.V("x"), "c"), inner), adl.T("X"))
	got := mustEval(t, e, db).(*value.Set)
	// a=1: {⟨1,1⟩,⟨1,2⟩} ⊆ {⟨1,1⟩,⟨1,2⟩,⟨1,3⟩} → true
	// a=2: ∅ ⊆ ∅ → true (the tuple the buggy plan loses!)
	// a=3: {⟨2,3⟩} ⊆ ∅ → false
	if got.Len() != 2 {
		t.Fatalf("nested query = %v", got)
	}
	as := value.NewSet()
	for _, el := range got.Elems() {
		as.Add(el.(*value.Tuple).MustGet("a"))
	}
	if !value.Equal(as, value.NewSet(value.Int(1), value.Int(2))) {
		t.Errorf("selected a-values = %v, want {1, 2}", as)
	}
}

func TestErrorMessagesCarryContext(t *testing.T) {
	db := figure2DB()
	err := evalErr(t, adl.Mu("nope", adl.T("X")), db)
	if !strings.Contains(err.Error(), "nope") {
		t.Errorf("error lacks attribute name: %v", err)
	}
}

func TestArithmetic(t *testing.T) {
	db := figure2DB()
	cases := []struct {
		op   adl.ArithOp
		l, r value.Value
		want value.Value
	}{
		{adl.Add, value.Int(2), value.Int(3), value.Int(5)},
		{adl.Subtract, value.Int(2), value.Int(3), value.Int(-1)},
		{adl.Mul, value.Int(4), value.Int(3), value.Int(12)},
		{adl.Div, value.Int(7), value.Int(2), value.Int(3)},
		{adl.Add, value.Float(1.5), value.Float(2.5), value.Float(4)},
		{adl.Subtract, value.Float(1.5), value.Float(0.5), value.Float(1)},
		{adl.Mul, value.Float(2), value.Float(3.5), value.Float(7)},
		{adl.Div, value.Float(7), value.Float(2), value.Float(3.5)},
	}
	for _, c := range cases {
		e := &adl.Arith{Op: c.op, L: adl.C(c.l), R: adl.C(c.r)}
		if got := mustEval(t, e, db); !value.Equal(got, c.want) {
			t.Errorf("%s = %v, want %v", e, got, c.want)
		}
	}
	// Errors: division by zero (both kinds), mixed kinds, non-numeric.
	evalErr(t, &adl.Arith{Op: adl.Div, L: adl.CInt(1), R: adl.CInt(0)}, db)
	evalErr(t, &adl.Arith{Op: adl.Div, L: adl.C(value.Float(1)), R: adl.C(value.Float(0))}, db)
	evalErr(t, &adl.Arith{Op: adl.Add, L: adl.CInt(1), R: adl.C(value.Float(1))}, db)
	evalErr(t, &adl.Arith{Op: adl.Add, L: adl.CStr("a"), R: adl.CStr("b")}, db)
	evalErr(t, &adl.Arith{Op: adl.Add, L: adl.C(value.Float(1)), R: adl.CInt(1)}, db)
}

func TestAggregateEdgeCases(t *testing.T) {
	db := figure2DB()
	// min/max over strings and dates (ordered atoms).
	strs := adl.SetOf(adl.CStr("b"), adl.CStr("a"), adl.CStr("c"))
	if got := mustEval(t, adl.AggE(adl.Min, strs), db); !value.Equal(got, value.String("a")) {
		t.Errorf("min strings = %v", got)
	}
	dates := adl.SetOf(adl.C(value.Date(940102)), adl.C(value.Date(940101)))
	if got := mustEval(t, adl.AggE(adl.Max, dates), db); !value.Equal(got, value.Date(940102)) {
		t.Errorf("max dates = %v", got)
	}
	// Float sum and avg.
	fs := adl.SetOf(adl.C(value.Float(1.5)), adl.C(value.Float(2.5)))
	if got := mustEval(t, adl.AggE(adl.Sum, fs), db); !value.Equal(got, value.Float(4)) {
		t.Errorf("sum floats = %v", got)
	}
	if got := mustEval(t, adl.AggE(adl.Avg, fs), db); !value.Equal(got, value.Float(2)) {
		t.Errorf("avg floats = %v", got)
	}
	// Errors: aggregates over sets/tuples, mixed kinds, non-numeric sum.
	evalErr(t, adl.AggE(adl.Min, adl.T("X")), db)
	evalErr(t, adl.AggE(adl.Sum, adl.SetOf(adl.CStr("a"))), db)
	evalErr(t, adl.AggE(adl.Sum, adl.SetOf(adl.CInt(1), adl.C(value.Float(1)))), db)
	evalErr(t, adl.AggE(adl.Max, adl.SetOf(adl.CInt(1), adl.CStr("x"))), db)
	evalErr(t, adl.AggE(adl.Avg, adl.SetOf(adl.C(value.Bool(true)))), db)
}

func TestTuplePositionsDerefOIDs(t *testing.T) {
	// evalTuple's implicit deref: concat with a referenced object.
	db := storage.NewMemDB("D", value.NewSet(
		value.NewTuple("did", value.OID(1), "supplier", value.OID(10))))
	db.Objs[10] = value.NewTuple("eid", value.OID(10), "sname", value.String("s1"))
	e := adl.MapE("d", adl.Cat(adl.SubT(adl.V("d"), "did"), adl.Dot(adl.V("d"), "supplier")), adl.T("D"))
	got := mustEval(t, e, db).(*value.Set)
	tup := got.Elems()[0].(*value.Tuple)
	if !tup.Has("sname") || !tup.Has("did") {
		t.Errorf("concat through oid = %v", tup)
	}
	// Concat of a non-tuple errors.
	evalErr(t, adl.Cat(adl.CInt(1), adl.CInt(2)), db)
}
