package adl

import (
	"testing"
)

// chainAttrs resolves attributes for the three-table fixtures below.
func chainAttrs(e Expr) []string {
	t, ok := e.(*Table)
	if !ok {
		return nil
	}
	switch t.Name {
	case "A":
		return []string{"a_id", "a_v"}
	case "B":
		return []string{"b_a", "b_c", "b_v"}
	case "C":
		return []string{"c_id", "c_v"}
	}
	return nil
}

// chain3 is ((A ⋈ B) ⋈ C) with the outer predicate referencing the
// concatenated left tuple.
func chain3() *Join {
	inner := JoinE(T("A"), "x", "y",
		EqE(Dot(V("x"), "a_id"), Dot(V("y"), "b_a")), T("B"))
	return JoinE(inner, "xy", "z",
		EqE(Dot(V("xy"), "b_c"), Dot(V("z"), "c_id")), T("C"))
}

func TestDecomposeJoinTreeChain(t *testing.T) {
	tree, ok := DecomposeJoinTree(chain3(), chainAttrs)
	if !ok {
		t.Fatal("chain should decompose")
	}
	if len(tree.Leaves) != 3 {
		t.Fatalf("got %d leaves, want 3", len(tree.Leaves))
	}
	if len(tree.Conjs) != 2 {
		t.Fatalf("got %d conjuncts, want 2", len(tree.Conjs))
	}
	// The outer conjunct must have been re-pointed at the B leaf: no conjunct
	// may still reference the operand variables.
	for _, c := range tree.Conjs {
		for _, v := range []string{"x", "y", "z", "xy"} {
			if HasFree(c, v) {
				t.Errorf("conjunct %s still references operand variable %s", c, v)
			}
		}
	}
	// Every conjunct references exactly two distinct leaf variables.
	leafVars := map[string]bool{}
	for _, lf := range tree.Leaves {
		leafVars[lf.Var] = true
	}
	for _, c := range tree.Conjs {
		n := 0
		for v := range FreeVars(c) {
			if leafVars[v] {
				n++
			}
		}
		if n != 2 {
			t.Errorf("conjunct %s references %d leaf vars, want 2", c, n)
		}
	}
}

func TestDecomposeJoinTreeBailsOnUnknownAttrs(t *testing.T) {
	if _, ok := DecomposeJoinTree(chain3(), nil); ok {
		t.Fatal("decomposition without attribute knowledge must fail for multi-leaf operands")
	}
	// Ambiguity: both A and B claim b_c.
	dup := func(e Expr) []string {
		if tb, ok := e.(*Table); ok && (tb.Name == "A" || tb.Name == "B") {
			return []string{"b_c"}
		}
		return chainAttrs(e)
	}
	if _, ok := DecomposeJoinTree(chain3(), dup); ok {
		t.Fatal("ambiguous attribute ownership must fail")
	}
}

func TestDecomposeJoinTreeBailsOnWholeTupleRef(t *testing.T) {
	// The outer predicate uses the concatenated tuple as a whole (xy ∈ …):
	// no single leaf owns it.
	inner := JoinE(T("A"), "x", "y",
		EqE(Dot(V("x"), "a_id"), Dot(V("y"), "b_a")), T("B"))
	outer := JoinE(inner, "xy", "z",
		CmpE(In, V("xy"), Dot(V("z"), "c_v")), T("C"))
	if _, ok := DecomposeJoinTree(outer, chainAttrs); ok {
		t.Fatal("whole-tuple reference must fail decomposition")
	}
}

func TestDecomposeJoinTreeSubscript(t *testing.T) {
	// The outer predicate subscripts the concatenated tuple: xy[b_c] must be
	// re-pointed at B; a subscript mixing attributes of two leaves must fail.
	inner := JoinE(T("A"), "x", "y",
		EqE(Dot(V("x"), "a_id"), Dot(V("y"), "b_a")), T("B"))
	good := JoinE(inner, "xy", "z",
		EqE(SubT(V("xy"), "b_c"), SubT(V("z"), "c_id")), T("C"))
	tree, ok := DecomposeJoinTree(good, chainAttrs)
	if !ok {
		t.Fatal("single-owner subscript should decompose")
	}
	for _, c := range tree.Conjs {
		if HasFree(c, "xy") {
			t.Errorf("subscript conjunct %s still references xy", c)
		}
	}
	mixed := JoinE(inner, "xy", "z",
		EqE(SubT(V("xy"), "a_id", "b_c"), SubT(V("z"), "c_id")), T("C"))
	if _, ok := DecomposeJoinTree(mixed, chainAttrs); ok {
		t.Fatal("cross-leaf subscript must fail decomposition")
	}
}

func TestDecomposeJoinTreeBailsOnShadowedVar(t *testing.T) {
	// The outer conjunct rebinds the operand variable xy inside a nested
	// iterator; textual re-pointing would be unsound, so decomposition bails.
	inner := JoinE(T("A"), "x", "y",
		EqE(Dot(V("x"), "a_id"), Dot(V("y"), "b_a")), T("B"))
	shadow := CmpE(In, Dot(V("xy"), "b_c"),
		MapE("xy", V("xy"), Dot(V("z"), "c_v")))
	outer := JoinE(inner, "xy", "z", shadow, T("C"))
	if _, ok := DecomposeJoinTree(outer, chainAttrs); ok {
		t.Fatal("shadowed operand variable must fail decomposition")
	}
}

func TestDecomposeJoinTreeOpaqueKinds(t *testing.T) {
	// A semijoin operand is an opaque leaf; the top join still decomposes
	// with the semijoin as one relation.
	semi := SemiJoin(T("A"), "x", "y",
		EqE(Dot(V("x"), "a_id"), Dot(V("y"), "b_a")), T("B"))
	top := JoinE(semi, "s", "z",
		EqE(Dot(V("s"), "a_id"), Dot(V("z"), "c_id")), T("C"))
	attrs := func(e Expr) []string {
		if _, isJoin := e.(*Join); isJoin {
			return []string{"a_id", "a_v"}
		}
		return chainAttrs(e)
	}
	tree, ok := DecomposeJoinTree(top, attrs)
	if !ok {
		t.Fatal("top join over opaque leaves should decompose")
	}
	if len(tree.Leaves) != 2 {
		t.Fatalf("got %d leaves, want 2 (semijoin stays opaque)", len(tree.Leaves))
	}
	if _, isJoin := tree.Leaves[0].Expr.(*Join); !isJoin {
		t.Errorf("first leaf should be the semijoin subplan")
	}
}

func TestComposeConjunctRebinds(t *testing.T) {
	c := EqE(Dot(V("r0"), "b_c"), Dot(V("r1"), "c_id"))
	got := ComposeConjunct(c, []string{"r0", "rX"}, "L", []string{"r1"}, "r1")
	want := EqE(Dot(V("L"), "b_c"), Dot(V("r1"), "c_id"))
	if !Equal(got, want) {
		t.Fatalf("got %s, want %s", got, want)
	}
}

func TestConjunctsDropsTrue(t *testing.T) {
	e := AndE(CBool(true), EqE(V("a"), V("b")), CBool(true))
	cs := Conjuncts(e)
	if len(cs) != 1 {
		t.Fatalf("got %d conjuncts, want 1", len(cs))
	}
}
