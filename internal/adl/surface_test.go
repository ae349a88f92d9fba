package adl

import (
	"strings"
	"testing"

	"repro/internal/value"
)

// everyNode returns one instance of every expression node, pairwise distinct
// under Equal. The list is the workhorse for the printer/Equal/Rebuild
// round-trip tests below: a node type added to the package without being
// added here will still round-trip (Rebuild panics on unknown nodes), but
// add it anyway so its printer clause stays exercised.
func everyNode() []Expr {
	return []Expr{
		C(value.Int(42)),
		V("v"),
		T("TBL"),
		Dot(V("t"), "a"),
		Tup("a", CInt(1), "b", CStr("s")),
		SetOf(CInt(1), CInt(2)),
		SubT(V("t"), "a", "b"),
		Exc(V("t"), "a", CInt(9)),
		Cat(V("l"), V("r")),
		CmpE(Le, V("l"), V("r")),
		&Arith{Op: Mul, L: V("l"), R: V("r")},
		NotE(V("p")),
		&And{L: V("p"), R: V("q")},
		&Or{L: V("p"), R: V("q")},
		&SetOp{Op: Diff, L: T("A"), R: T("B")},
		Flat(T("NESTED")),
		MapE("m", Dot(V("m"), "a"), T("M")),
		Sel("s", CBool(true), T("S")),
		Proj(T("P"), "a", "b"),
		Mu("kids", T("U")),
		Nu(T("N"), "grp", "a"),
		JoinE(T("A"), "x", "y", EqE(Dot(V("x"), "a"), Dot(V("y"), "b")), T("B")),
		SemiJoin(T("A"), "x", "y", CBool(true), T("B")),
		AntiJoin(T("A"), "x", "y", CBool(true), T("B")),
		NestJoin(T("A"), "x", "y", CBool(true), "as", T("B")),
		NestJoinF(T("A"), "x", "y", CBool(true), Dot(V("y"), "f"), "as", T("B")),
		OuterJoin(T("A"), "x", "y", CBool(true), T("B")),
		Ex("e", T("E"), CBool(true)),
		All("e", T("E"), CBool(true)),
		AggE(Sum, T("A")),
		Mat(T("M2"), "attr", "as"),
		LetE("w", CInt(1), V("w")),
	}
}

func TestEveryNodePrintsEqualsAndRebuilds(t *testing.T) {
	nodes := everyNode()
	for i, e := range nodes {
		e.exprNode() // the interface marker — every node must carry it
		if e.String() == "" {
			t.Errorf("node %d (%T) prints empty", i, e)
		}
		if !Equal(e, e) {
			t.Errorf("node %d (%T) not Equal to itself", i, e)
		}
		// Identity Rebuild yields a structurally equal copy; leaves come back
		// as the same pointer, interior nodes as fresh ones.
		cp := Rebuild(e, func(c Expr) Expr { return c })
		if !Equal(e, cp) {
			t.Errorf("node %d (%T): identity Rebuild not Equal: %s vs %s", i, e, e, cp)
		}
		if got, want := len(Children(cp)), len(Children(e)); got != want {
			t.Errorf("node %d (%T): Rebuild changed arity %d → %d", i, e, want, got)
		}
	}
	// Pairwise distinct: this drives every wrong-type and
	// same-type-different-content branch of Equal.
	for i := range nodes {
		for j := range nodes {
			if i != j && Equal(nodes[i], nodes[j]) {
				t.Errorf("nodes %d (%s) and %d (%s) compare Equal", i, nodes[i], j, nodes[j])
			}
		}
	}
}

func TestEqualNameAndLengthMismatches(t *testing.T) {
	if Equal(Tup("a", CInt(1)), Tup("b", CInt(1))) {
		t.Errorf("tuples with different attribute names compare Equal")
	}
	if Equal(SetOf(CInt(1)), SetOf(CInt(1), CInt(2))) {
		t.Errorf("sets of different arity compare Equal")
	}
	if Equal(Proj(T("A"), "a"), Proj(T("A"), "a", "b")) {
		t.Errorf("projections over different attribute lists compare Equal")
	}
	// A nestjoin with a right-tuple function never equals one without.
	plain := NestJoin(T("A"), "x", "y", CBool(true), "as", T("B"))
	funned := NestJoinF(T("A"), "x", "y", CBool(true), V("y"), "as", T("B"))
	if Equal(plain, funned) || Equal(funned, plain) {
		t.Errorf("nestjoin RFun presence ignored by Equal")
	}
}

func TestOperatorSymbols(t *testing.T) {
	cmps := map[CmpOp]string{Eq: "=", Ne: "≠", Lt: "<", Le: "≤", Gt: ">", Ge: "≥",
		In: "∈", Sub: "⊂", SubEq: "⊆", Sup: "⊃", SupEq: "⊇", Has: "∋"}
	for op, want := range cmps {
		if op.String() != want {
			t.Errorf("CmpOp %d prints %q, want %q", op, op.String(), want)
		}
	}
	ariths := map[ArithOp]string{Add: "+", Subtract: "-", Mul: "*", Div: "/"}
	for op, want := range ariths {
		if op.String() != want {
			t.Errorf("ArithOp %d prints %q, want %q", op, op.String(), want)
		}
	}
	setops := map[SetOpKind]string{Union: "∪", Intersect: "∩", Diff: "−"}
	for op, want := range setops {
		if op.String() != want {
			t.Errorf("SetOpKind %d prints %q, want %q", op, op.String(), want)
		}
	}
	joins := map[JoinKind]string{Inner: "⋈", Semi: "⋉", Anti: "▷", NestJ: "⊣", Outer: "⟕"}
	for k, want := range joins {
		if k.String() != want {
			t.Errorf("JoinKind %d prints %q, want %q", k, k.String(), want)
		}
	}
	aggs := map[AggOp]string{Count: "count", Sum: "sum", Min: "min", Max: "max", Avg: "avg"}
	for op, want := range aggs {
		if op.String() != want {
			t.Errorf("AggOp %d prints %q, want %q", op, op.String(), want)
		}
	}
	if Exists.String() != "∃" || QuantKind(1).String() != "∀" {
		t.Errorf("quantifier symbols wrong: %s %s", Exists, QuantKind(1))
	}
	// Out-of-range values print a debuggable fallback, not garbage.
	for _, s := range []string{
		CmpOp(200).String(), ArithOp(200).String(), SetOpKind(200).String(),
		JoinKind(200).String(), AggOp(200).String(),
	} {
		if !strings.Contains(s, "200") {
			t.Errorf("fallback rendering lost the raw value: %q", s)
		}
	}
}

func TestPrinterNotation(t *testing.T) {
	cases := []struct{ got, want string }{
		{Mat(T("X"), "a", "m").String(), "mat[a→m](X)"},
		{Cat(V("l"), V("r")).String(), "(l ∘ r)"},
		{Exc(V("t"), "a", CInt(1)).String(), "(t except (a = 1))"},
		{Nu(T("X"), "g", "a", "b").String(), "ν[{a, b}→g](X)"},
		{LetE("v", CInt(1), V("v")).String(), "(v with v = 1)"},
		{AggE(Count, T("X")).String(), "count(X)"},
		{NestJoin(T("A"), "x", "y", CBool(true), "kids", T("B")).String(),
			"(A ⊣[x,y : true ; kids] B)"},
		{NestJoinF(T("A"), "x", "y", CBool(true), Dot(V("y"), "f"), "kids", T("B")).String(),
			"(A ⊣[x,y : true ; y→y.f ; kids] B)"},
		{SemiJoin(T("A"), "x", "y", CBool(true), T("B")).String(),
			"(A ⋉[x,y : true] B)"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("printed %q, want %q", c.got, c.want)
		}
	}
}

func TestFreshNumberedFallback(t *testing.T) {
	avoid := AndE(EqE(V("x"), V("x1")), EqE(V("x2"), CInt(1)))
	if got := Fresh("x", avoid); got != "x3" {
		t.Errorf("Fresh = %q, want x3", got)
	}
	// Bound occurrences count as used too.
	if got := Fresh("b", Sel("b", CBool(true), T("X"))); got != "b1" {
		t.Errorf("Fresh past bound var = %q, want b1", got)
	}
}

func TestFreeVarsNestJoinRFun(t *testing.T) {
	// The right-tuple function is inside the join's binding scope: its x and
	// y are bound, its z is free.
	j := NestJoinF(T("A"), "x", "y", CBool(true),
		EqE(Dot(V("y"), "f"), V("z")), "as", T("B"))
	fv := FreeVars(j)
	if fv["x"] || fv["y"] || !fv["z"] {
		t.Errorf("nestjoin RFun scope wrong: %v", fv)
	}
}

func TestSubstBinderShadowsEachIterator(t *testing.T) {
	// For every binding construct, substituting its own variable must stop at
	// the binder and still rewrite the non-scope operand.
	cases := []struct{ e, want Expr }{
		{MapE("x", V("x"), V("x")), MapE("x", V("x"), T("X"))},
		{Ex("x", V("x"), V("x")), Ex("x", T("X"), V("x"))},
		{LetE("x", V("x"), V("x")), LetE("x", T("X"), V("x"))},
		{JoinE(V("x"), "x", "y", V("x"), V("x")),
			JoinE(T("X"), "x", "y", V("x"), T("X"))},
	}
	for _, c := range cases {
		if got := Subst(c.e, "x", T("X")); !Equal(got, c.want) {
			t.Errorf("Subst(%s) = %s, want %s", c.e, got, c.want)
		}
	}
}

func TestSubstJoinCaptureBothSides(t *testing.T) {
	// ((A ⋈[x,y : x.a = z] B))[z := x.b]: the replacement's free x would be
	// captured by the join's left binder, so the binder must be renamed.
	j := JoinE(T("A"), "x", "y", EqE(Dot(V("x"), "a"), V("z")), T("B"))
	got, ok := Subst(j, "z", Dot(V("x"), "b")).(*Join)
	if !ok {
		t.Fatalf("result is not a join")
	}
	if got.LVar == "x" {
		t.Fatalf("left binder not renamed: %s", got)
	}
	if !HasFree(got.On, "x") {
		t.Fatalf("replacement's free x was captured: %s", got)
	}
	if !Equal(got.On, EqE(Dot(V(got.LVar), "a"), Dot(V("x"), "b"))) {
		t.Fatalf("predicate misrewritten: %s", got.On)
	}

	// Same through the right binder, with a right-tuple function in scope.
	nj := NestJoinF(T("A"), "x", "y", EqE(Dot(V("x"), "a"), V("z")),
		EqE(Dot(V("y"), "f"), V("z")), "as", T("B"))
	got, ok = Subst(nj, "z", Dot(V("y"), "b")).(*Join)
	if !ok {
		t.Fatalf("result is not a join")
	}
	if got.RVar == "y" {
		t.Fatalf("right binder not renamed: %s", got)
	}
	if !Equal(got.RFun, EqE(Dot(V(got.RVar), "f"), Dot(V("y"), "b"))) {
		t.Fatalf("right-tuple function misrewritten: %s", got.RFun)
	}
}

// TestBindsVar: every iterator's binder counts, a reference does not.
func TestBindsVar(t *testing.T) {
	if BindsVar(Sel("v", CBool(true), T("X")), "v") != true {
		t.Errorf("BindsVar must see the select binder")
	}
	if BindsVar(NestJoin(T("A"), "x", "y", CBool(true), "as", T("B")), "y") != true {
		t.Errorf("BindsVar must see join binders")
	}
	if BindsVar(Dot(V("v"), "a"), "v") {
		t.Errorf("a reference is not a binding")
	}
}
