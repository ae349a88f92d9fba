package adl

import (
	"bytes"
	"testing"

	"repro/internal/types"
	"repro/internal/value"
)

func lift(e Expr) (Expr, []value.Value, []byte) { return Lift(e, nil) }

func countParams(e Expr) int {
	return CountNodes(e, func(x Expr) bool { _, ok := x.(*Param); return ok })
}

func TestLiftRule(t *testing.T) {
	price, color := Dot(V("p"), "price"), Dot(V("p"), "color")
	count := &Agg{Op: Count, X: Dot(V("s"), "parts")}
	cases := []struct {
		name   string
		e      Expr
		params int // Param leaves in the template
		args   int // distinct slots
	}{
		{"int operand", CmpE(Lt, price, CInt(50)), 1, 1},
		{"literal on the left", CmpE(Gt, CInt(50), price), 1, 1},
		{"string, float and date", AndE(EqE(color, CStr("red")),
			CmpE(Lt, price, C(value.Float(1.5))), EqE(Dot(V("d"), "date"), C(value.Date(940101)))), 3, 3},
		{"equal literals share a slot", AndE(CmpE(Lt, price, CInt(7)), CmpE(Gt, Dot(V("p"), "qty"), CInt(7))), 2, 1},
		{"equal text, different kinds", AndE(CmpE(Lt, price, CInt(5)), CmpE(Gt, price, C(value.Float(5)))), 2, 2},
		{"membership operand", CmpE(In, CInt(3), Dot(V("s"), "nums")), 1, 1},
		{"constant comparison", EqE(CInt(1), CInt(1)), 0, 0},
		{"literal beside an aggregate", EqE(count, CInt(0)), 0, 0},
		{"bool literal", EqE(Dot(V("p"), "ok"), CBool(true)), 0, 0},
		{"set literal", CmpE(In, price, &SetExpr{Elems: []Expr{CInt(1), CInt(2)}}), 0, 0},
		{"arithmetic operand", CmpE(Lt, price, &Arith{Op: Add, L: CInt(1), R: CInt(2)}), 0, 0},
		{"selection predicate true", Sel("p", CBool(true), T("PART")), 0, 0},
	}
	for _, c := range cases {
		tmpl, args, _ := lift(c.e)
		if got := countParams(tmpl); got != c.params || len(args) != c.args {
			t.Errorf("%s: %d params over %d slots, want %d over %d: %s", c.name, got, len(args), c.params, c.args, tmpl)
		}
		before := tmpl.String()
		if bound := Bind(tmpl, args); !Equal(bound, c.e) || countParams(bound) != 0 {
			t.Errorf("%s: Bind(Lift(e)) = %s, want %s", c.name, bound, c.e)
		}
		if tmpl.String() != before {
			t.Errorf("%s: Bind changed the template: %s → %s", c.name, before, tmpl)
		}
	}
}

func TestParamIsATypedOpaqueLeaf(t *testing.T) {
	tmpl, _, _ := lift(AndE(CmpE(Lt, Dot(V("p"), "price"), CInt(7)), EqE(Dot(V("p"), "color"), CStr("red"))))
	var ps []*Param
	Walk(tmpl, func(x Expr) bool {
		if p, ok := x.(*Param); ok {
			ps = append(ps, p)
		}
		return true
	})
	if len(ps) != 2 || Equal(ps[0], ps[1]) || !Equal(ps[0], &Param{Slot: 0, Type: types.IntType}) {
		t.Fatalf("params %v", ps)
	}
	for i, want := range []types.Type{types.IntType, types.StringType} {
		if got, err := Infer(ps[i], TypeEnv{}, nil); err != nil || !types.Equal(got, want) {
			t.Errorf("Infer(%s) = %v, %v; want %s", ps[i], got, err, want)
		}
	}
	if Equal(ps[0], CInt(7)) || Equal(CInt(7), ps[0]) {
		t.Errorf("a parameter equals no literal")
	}
}

// TestLiftKey: equal keys ⇔ equal templates, whatever the literals were.
func TestLiftKey(t *testing.T) {
	sel := func(pred Expr) Expr { return MapE("p", Dot(V("p"), "pname"), Sel("p", pred, T("PART"))) }
	price, qty := Dot(V("p"), "price"), Dot(V("p"), "qty")
	count := &Agg{Op: Count, X: Sel("q", EqE(Dot(V("q"), "pid"), Dot(V("p"), "pid")), T("PART"))}
	same := [][2]Expr{
		{sel(CmpE(Lt, price, CInt(1001))), sel(CmpE(Lt, price, CInt(-3)))},
		{sel(EqE(Dot(V("p"), "color"), CStr("red"))), sel(EqE(Dot(V("p"), "color"), CStr("")))},
		{sel(AndE(CmpE(Lt, price, CInt(1)), CmpE(Gt, qty, CInt(2)))), sel(AndE(CmpE(Lt, price, CInt(8)), CmpE(Gt, qty, CInt(9))))},
	}
	for _, p := range same {
		ta, _, ka := lift(p[0])
		tb, _, kb := lift(p[1])
		if !bytes.Equal(ka, kb) || !Equal(ta, tb) {
			t.Errorf("%s and %s: keys %q %q", p[0], p[1], ka, kb)
		}
	}
	differ := [][2]Expr{
		{sel(CmpE(Lt, price, CInt(5))), sel(CmpE(Le, price, CInt(5)))},
		{sel(CmpE(Lt, price, CInt(5))), sel(CmpE(Lt, qty, CInt(5)))},
		{sel(CmpE(Lt, price, CInt(5))), sel(CmpE(Lt, price, C(value.Float(5))))},
		{sel(CmpE(Lt, price, CInt(5))), sel(CmpE(Lt, price, C(value.Date(5))))},
		// Two slots bound to one value is not the template with one slot.
		{sel(AndE(CmpE(Lt, price, CInt(7)), CmpE(Gt, qty, CInt(7)))), sel(AndE(CmpE(Lt, price, CInt(7)), CmpE(Gt, qty, CInt(8))))},
		// Literals that stay in the template stay in the key.
		{sel(EqE(count, CInt(0))), sel(EqE(count, CInt(1)))},
		{sel(EqE(CInt(1), CInt(1))), sel(EqE(CInt(1), CInt(2)))},
		{sel(CBool(true)), sel(CBool(false))},
		{sel(EqE(Dot(V("p"), "ok"), CBool(true))), sel(EqE(Dot(V("p"), "ok"), CBool(false)))},
		// Names and arities.
		{&TupleExpr{Names: []string{"a", "bc"}, Elems: []Expr{CInt(1), CInt(2)}}, &TupleExpr{Names: []string{"ab", "c"}, Elems: []Expr{CInt(1), CInt(2)}}},
		{&SetExpr{Elems: []Expr{&SetExpr{}, &SetExpr{}}}, &SetExpr{Elems: []Expr{&SetExpr{Elems: []Expr{&SetExpr{}}}}}},
		{JoinE(T("X"), "x", "y", CBool(true), T("Y")), &Join{Kind: NestJ, LVar: "x", RVar: "y", On: CBool(true), As: "g", RFun: V("y"), L: T("X"), R: T("Y")}},
	}
	for _, p := range differ {
		ta, _, ka := lift(p[0])
		tb, _, kb := lift(p[1])
		if bytes.Equal(ka, kb) || Equal(ta, tb) {
			t.Errorf("%s and %s share key %q", p[0], p[1], ka)
		}
	}
}

// TestLiftKeyCoversEveryNode: a node kind Lift does not encode panics, and a
// field it forgot to encode would make two of these keys equal.
func TestLiftKeyCoversEveryNode(t *testing.T) {
	x, y := V("x"), V("y")
	nodes := []Expr{
		CInt(1), CStr("1"), x, T("x"), Dot(x, "a"), Dot(x, "b"), Tup("a", x), &SetExpr{Elems: []Expr{x}},
		SubT(x, "a"), &ExceptExpr{X: x, Names: []string{"a"}, Elems: []Expr{y}}, &Concat{L: x, R: y},
		CmpE(Eq, x, y), CmpE(Ne, x, y), &Arith{Op: Add, L: x, R: y}, &Arith{Op: Mul, L: x, R: y},
		NotE(x), &And{L: x, R: y}, &Or{L: x, R: y}, &SetOp{Op: Union, L: x, R: y}, &SetOp{Op: Diff, L: x, R: y},
		&Flatten{X: x}, MapE("x", x, y), MapE("y", x, y), Sel("x", x, y), &Project{Attrs: []string{"a"}, X: x},
		&Unnest{Attr: "a", X: x}, &Nest{Attrs: []string{"a"}, As: "g", X: x}, &Nest{Attrs: []string{"g"}, As: "a", X: x},
		JoinE(x, "x", "y", x, y), &Join{Kind: Semi, LVar: "x", RVar: "y", On: x, L: x, R: y},
		Ex("x", x, y), All("x", x, y), &Agg{Op: Count, X: x}, &Agg{Op: Sum, X: x},
		LetE("x", x, y),
	}
	seen := map[string]Expr{}
	for _, n := range nodes {
		_, _, key := lift(n)
		if prev, dup := seen[string(key)]; dup {
			t.Errorf("%s and %s share key %q", prev, n, key)
		}
		seen[string(key)] = n
	}
}
