package adl

import (
	"strings"
	"testing"
)

func TestFreeVarsBinders(t *testing.T) {
	// σ[x : x.a = y.b](X): x is bound, y is free.
	e := Sel("x", EqE(Dot(V("x"), "a"), Dot(V("y"), "b")), T("X"))
	fv := FreeVars(e)
	if fv["x"] {
		t.Errorf("x must be bound in select predicate")
	}
	if !fv["y"] {
		t.Errorf("y must be free")
	}

	// The source of an iterator is outside the binding scope:
	// α[x : x](x) has x free (the operand x).
	e2 := MapE("x", V("x"), V("x"))
	if !FreeVars(e2)["x"] {
		t.Errorf("operand occurrence of x must be free")
	}

	// Join binds both variables in the predicate.
	j := SemiJoin(T("X"), "x", "y", EqE(Dot(V("x"), "a"), Dot(V("y"), "b")), T("Y"))
	if len(FreeVars(j)) != 0 {
		t.Errorf("join with only bound vars must be closed: %v", FreeVars(j))
	}

	// Quantifier: ∃y ∈ Y • y = x has x free.
	q := Ex("y", T("Y"), EqE(V("y"), V("x")))
	fv = FreeVars(q)
	if fv["y"] || !fv["x"] {
		t.Errorf("quantifier binding wrong: %v", fv)
	}

	// Let binds in body only.
	l := LetE("v", V("w"), V("v"))
	fv = FreeVars(l)
	if fv["v"] || !fv["w"] {
		t.Errorf("let binding wrong: %v", fv)
	}
}

func TestSubstBasic(t *testing.T) {
	// (x.a = 1)[x := t] = (t.a = 1)
	e := EqE(Dot(V("x"), "a"), CInt(1))
	got := Subst(e, "x", V("t"))
	want := EqE(Dot(V("t"), "a"), CInt(1))
	if !Equal(got, want) {
		t.Errorf("Subst = %s, want %s", got, want)
	}
}

func TestSubstRespectsShadowing(t *testing.T) {
	// σ[x : x.a = 1](x) — the bound x in the predicate must not be replaced,
	// the operand occurrence must.
	e := Sel("x", EqE(Dot(V("x"), "a"), CInt(1)), V("x"))
	got := Subst(e, "x", T("X"))
	want := Sel("x", EqE(Dot(V("x"), "a"), CInt(1)), T("X"))
	if !Equal(got, want) {
		t.Errorf("Subst = %s, want %s", got, want)
	}
}

func TestSubstCaptureAvoiding(t *testing.T) {
	// σ[y : y.a = x](Y)[x := y.b] must rename the binder y: the free y in
	// the replacement must not be captured.
	e := Sel("y", EqE(Dot(V("y"), "a"), V("x")), T("Y"))
	got := Subst(e, "x", Dot(V("y"), "b"))
	sel, ok := got.(*Select)
	if !ok {
		t.Fatalf("result is %T", got)
	}
	if sel.Var == "y" {
		t.Fatalf("binder must have been renamed: %s", got)
	}
	// The replacement's free y must survive.
	if !FreeVars(got)["y"] {
		t.Fatalf("free y of replacement was captured: %s", got)
	}
	// And the bound occurrences must follow the rename.
	want := Sel(sel.Var, EqE(Dot(V(sel.Var), "a"), Dot(V("y"), "b")), T("Y"))
	if !Equal(got, want) {
		t.Errorf("Subst = %s, want %s", got, want)
	}
}

func TestSubstIntoJoinPredicate(t *testing.T) {
	// (X ⋉[x,y : x.a = z] Y)[z := 5]
	e := SemiJoin(T("X"), "x", "y", EqE(Dot(V("x"), "a"), V("z")), T("Y"))
	got := Subst(e, "z", CInt(5))
	want := SemiJoin(T("X"), "x", "y", EqE(Dot(V("x"), "a"), CInt(5)), T("Y"))
	if !Equal(got, want) {
		t.Errorf("Subst = %s, want %s", got, want)
	}
	// Bound join variables block substitution.
	got2 := Subst(e, "x", CInt(7))
	if !Equal(got2, e) {
		t.Errorf("substitution for bound join var must be a no-op, got %s", got2)
	}
}

func TestSubstJoinCaptureAvoiding(t *testing.T) {
	// (X ⋉[x,y : x.a = z] Y)[z := y.q]: replacement mentions y which the
	// join binds, so the join's y must be renamed.
	e := SemiJoin(T("X"), "x", "y", EqE(Dot(V("x"), "a"), V("z")), T("Y"))
	got := Subst(e, "z", Dot(V("y"), "q"))
	j, ok := got.(*Join)
	if !ok {
		t.Fatalf("result is %T", got)
	}
	if j.RVar == "y" {
		t.Fatalf("join RVar must have been renamed: %s", got)
	}
	if !FreeVars(got)["y"] {
		t.Fatalf("free y of replacement was captured: %s", got)
	}
}

func TestFresh(t *testing.T) {
	e := Sel("x", EqE(V("x"), V("x1")), T("X"))
	if got := Fresh("y", e); got != "y" {
		t.Errorf("Fresh(y) = %q", got)
	}
	if got := Fresh("x", e); got == "x" || got == "x1" {
		t.Errorf("Fresh(x) = %q must avoid x and x1", got)
	}
}

func TestEqualAndRebuild(t *testing.T) {
	a := Sel("x", EqE(Dot(V("x"), "a"), CInt(1)), T("X"))
	b := Sel("x", EqE(Dot(V("x"), "a"), CInt(1)), T("X"))
	if !Equal(a, b) {
		t.Errorf("structurally identical expressions must be Equal")
	}
	c := Sel("x", EqE(Dot(V("x"), "a"), CInt(2)), T("X"))
	if Equal(a, c) {
		t.Errorf("different constants must differ")
	}
	// Rebuild with identity preserves structure.
	id := Rebuild(a, func(e Expr) Expr { return e })
	if !Equal(a, id) {
		t.Errorf("identity rebuild changed the expression")
	}
}

func TestTransformBottomUp(t *testing.T) {
	// Replace every constant 1 with 2, everywhere.
	e := Sel("x", EqE(Dot(V("x"), "a"), CInt(1)), SetOf(CInt(1), CInt(3)))
	got := Transform(e, func(x Expr) Expr {
		if c, ok := x.(*Const); ok && Equal(c, CInt(1)) {
			return CInt(2)
		}
		return x
	})
	want := Sel("x", EqE(Dot(V("x"), "a"), CInt(2)), SetOf(CInt(2), CInt(3)))
	if !Equal(got, want) {
		t.Errorf("Transform = %s, want %s", got, want)
	}
}

func TestWalkAndCountNodes(t *testing.T) {
	e := Sel("x", Ex("y", T("Y"), EqE(V("y"), V("x"))), T("X"))
	tables := CountNodes(e, func(x Expr) bool {
		_, ok := x.(*Table)
		return ok
	})
	if tables != 2 {
		t.Errorf("CountNodes(tables) = %d, want 2", tables)
	}
	// Walk can prune: skip quantifier subtrees.
	n := 0
	Walk(e, func(x Expr) bool {
		if _, ok := x.(*Quant); ok {
			return false
		}
		n++
		return true
	})
	if n != 2 { // the Select and its source table
		t.Errorf("pruned walk visited %d nodes, want 2", n)
	}
}

func TestPrintNotation(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{Sel("x", EqE(Dot(V("x"), "a"), CInt(1)), T("X")), "σ[x : x.a = 1](X)"},
		{MapE("x", Dot(V("x"), "sname"), T("SUPPLIER")), "α[x : x.sname](SUPPLIER)"},
		{Proj(T("X"), "a", "b"), "π[a, b](X)"},
		{Mu("parts", T("SUPPLIER")), "μ[parts](SUPPLIER)"},
		{Nu(T("X"), "ys", "d", "e"), "ν[{d, e}→ys](X)"},
		{Flat(T("X")), "flatten(X)"},
		{SemiJoin(T("X"), "x", "y", EqE(V("x"), V("y")), T("Y")), "(X ⋉[x,y : x = y] Y)"},
		{AntiJoin(T("X"), "x", "y", EqE(V("x"), V("y")), T("Y")), "(X ▷[x,y : x = y] Y)"},
		{NestJoin(T("X"), "x", "y", EqE(V("x"), V("y")), "ys", T("Y")), "(X ⊣[x,y : x = y ; ys] Y)"},
		{NestJoinF(T("X"), "x", "y", CBool(true), Dot(V("y"), "e"), "ys", T("Y")), "(X ⊣[x,y : true ; y→y.e ; ys] Y)"},
		{Ex("y", T("Y"), CBool(true)), "(∃y ∈ Y • true)"},
		{All("y", T("Y"), CBool(true)), "(∀y ∈ Y • true)"},
		{NotE(CmpE(In, V("z"), Dot(V("x"), "c"))), "¬(z ∈ x.c)"},
		{CmpE(SubEq, Dot(V("x"), "c"), V("Y1")), "x.c ⊆ Y1"},
		{AggE(Count, V("Y1")), "count(Y1)"},
		{Exc(V("z"), "parts", CInt(1)), "(z except (parts = 1))"},
		{SubT(V("z"), "a", "b"), "z[a, b]"},
		{Cat(V("x"), V("y")), "(x ∘ y)"},
		{Mat(T("D"), "supplier", "sup"), "mat[supplier→sup](D)"},
		{LetE("Y1", T("Y"), V("Y1")), "(Y1 with Y1 = Y)"},
		{Tup("sname", Dot(V("s"), "sname")), "(sname = s.sname)"},
		{AndE(CBool(true), CBool(false)), "(true ∧ false)"},
		{OrE(CBool(true), CBool(false)), "(true ∨ false)"},
		{OuterJoin(T("X"), "x", "y", CBool(true), T("Y")), "(X ⟕[x,y : true] Y)"},
		{&Arith{Op: Add, L: CInt(1), R: CInt(2)}, "(1 + 2)"},
		{&SetOp{Op: Union, L: T("X"), R: T("Y")}, "(X ∪ Y)"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestAndOrFolding(t *testing.T) {
	if got := AndE().String(); got != "true" {
		t.Errorf("empty AndE = %q", got)
	}
	if got := OrE().String(); got != "false" {
		t.Errorf("empty OrE = %q", got)
	}
	if got := AndE(CBool(true)); !Equal(got, CBool(true)) {
		t.Errorf("singleton AndE = %v", got)
	}
}

func TestDotChain(t *testing.T) {
	e := Dot(V("d"), "supplier", "sname")
	if got := e.String(); got != "d.supplier.sname" {
		t.Errorf("Dot chain = %q", got)
	}
}

func TestChildrenOrder(t *testing.T) {
	j := NestJoinF(T("L"), "x", "y", CBool(true), V("y"), "ys", T("R"))
	kids := Children(j)
	if len(kids) != 4 { // On, L, R, RFun
		t.Fatalf("nestjoin children = %d", len(kids))
	}
	var hasL, hasR bool
	for _, k := range kids {
		if tb, ok := k.(*Table); ok {
			hasL = hasL || tb.Name == "L"
			hasR = hasR || tb.Name == "R"
		}
	}
	if !hasL || !hasR {
		t.Fatalf("children missing operands: %v", kids)
	}
}

func TestStringsAreStable(t *testing.T) {
	// Guard against accidental notation drift used by paperrepro goldens.
	e := Sel("s",
		Ex("x", Dot(V("s"), "parts"),
			Ex("p", T("PART"),
				AndE(EqE(V("x"), SubT(V("p"), "pid")),
					EqE(Dot(V("p"), "color"), CStr("red"))))),
		T("SUPPLIER"))
	want := `σ[s : (∃x ∈ s.parts • (∃p ∈ PART • (x = p[pid] ∧ p.color = "red")))](SUPPLIER)`
	if got := e.String(); got != want {
		t.Errorf("EQ5 rendering drifted:\n got %s\nwant %s", got, want)
	}
	if !strings.Contains(want, "∃") {
		t.Fatal("sanity")
	}
}

func TestConjunctsDropsTrue(t *testing.T) {
	e := AndE(CBool(true), EqE(V("a"), V("b")), CBool(true))
	cs := Conjuncts(e)
	if len(cs) != 1 {
		t.Fatalf("got %d conjuncts, want 1", len(cs))
	}
}
