package adl

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/types"
)

// testResolver resolves two tables and one class for inference tests.
type testResolver struct{}

func (testResolver) TableElem(name string) (*types.Tuple, error) {
	switch name {
	case "X":
		return types.NewTuple("a", types.IntType, "c",
			types.NewSet(types.NewTuple("d", types.IntType, "e", types.IntType))), nil
	case "Y":
		return types.NewTuple("d", types.IntType, "e", types.IntType), nil
	case "S":
		return types.NewTuple("sid", types.OIDType, "ref", types.Ref{Class: "P"},
			"refs", types.NewSet(types.NewTuple("pid", types.Ref{Class: "P"}))), nil
	}
	return nil, fmt.Errorf("unknown table %q", name)
}

func (testResolver) ClassTuple(class string) (*types.Tuple, error) {
	if class == "P" {
		return types.NewTuple("pid", types.OIDType, "pname", types.StringType), nil
	}
	return nil, fmt.Errorf("unknown class %q", class)
}

func infer(t *testing.T, e Expr) types.Type {
	t.Helper()
	ty, err := Infer(e, TypeEnv{}, testResolver{})
	if err != nil {
		t.Fatalf("Infer(%s): %v", e, err)
	}
	return ty
}

func inferErr(t *testing.T, e Expr) {
	t.Helper()
	if ty, err := Infer(e, TypeEnv{}, testResolver{}); err == nil {
		t.Fatalf("Infer(%s) = %s, want error", e, ty)
	}
}

func TestInferTableAndSelect(t *testing.T) {
	ty := infer(t, Sel("x", CmpE(Gt, Dot(V("x"), "a"), CInt(1)), T("X")))
	want := "{(a: int, c: {(d: int, e: int)})}"
	if ty.String() != want {
		t.Errorf("σ type = %s, want %s", ty, want)
	}
}

func TestInferMapProjectUnnestNest(t *testing.T) {
	// α over field access.
	ty := infer(t, MapE("x", Dot(V("x"), "a"), T("X")))
	if ty.String() != "{int}" {
		t.Errorf("α type = %s", ty)
	}
	// π.
	ty = infer(t, Proj(T("Y"), "d"))
	if ty.String() != "{(d: int)}" {
		t.Errorf("π type = %s", ty)
	}
	// μ merges element fields with the rest.
	ty = infer(t, Mu("c", T("X")))
	if !strings.Contains(ty.String(), "d: int") || !strings.Contains(ty.String(), "a: int") {
		t.Errorf("μ type = %s", ty)
	}
	// ν groups the named attrs into a set attribute.
	ty = infer(t, Nu(T("Y"), "es", "e"))
	if ty.String() != "{(d: int, es: {(e: int)})}" {
		t.Errorf("ν type = %s", ty)
	}
	// ν with a clashing result attribute fails.
	inferErr(t, Nu(T("Y"), "d", "e"))
}

func TestInferJoins(t *testing.T) {
	on := EqE(Dot(V("x"), "a"), Dot(V("y"), "d"))
	// Inner join concatenates.
	ty := infer(t, JoinE(T("X"), "x", "y", on, T("Y")))
	for _, f := range []string{"a: int", "c:", "d: int", "e: int"} {
		if !strings.Contains(ty.String(), f) {
			t.Errorf("⋈ type = %s missing %s", ty, f)
		}
	}
	// Semijoin/antijoin keep exactly the left schema.
	left := infer(t, T("X"))
	for _, k := range []JoinKind{Semi, Anti} {
		j := &Join{Kind: k, LVar: "x", RVar: "y", On: on, L: T("X"), R: T("Y")}
		if ty := infer(t, j); !types.Equal(ty, left) {
			t.Errorf("%v type = %s, want %s", k, ty, left)
		}
	}
	// Nestjoin appends a set attribute; with RFun, of the mapped type.
	nj := NestJoin(T("X"), "x", "y", on, "ys", T("Y"))
	ty = infer(t, nj)
	if !strings.Contains(ty.String(), "ys: {(d: int, e: int)}") {
		t.Errorf("⊣ type = %s", ty)
	}
	njf := NestJoinF(T("X"), "x", "y", on, Dot(V("y"), "e"), "es", T("Y"))
	ty = infer(t, njf)
	if !strings.Contains(ty.String(), "es: {int}") {
		t.Errorf("⊣ with RFun type = %s", ty)
	}
	// Attribute collision in concat fails.
	inferErr(t, JoinE(T("X"), "x", "y", CBool(true), T("X")))
	// Nestjoin result attribute collision fails.
	inferErr(t, NestJoin(T("X"), "x", "y", on, "a", T("Y")))
}

func TestInferQuantifierAndAgg(t *testing.T) {
	ty := infer(t, Ex("y", T("Y"), EqE(Dot(V("y"), "d"), CInt(1))))
	if !types.Equal(ty, types.BoolType) {
		t.Errorf("∃ type = %s", ty)
	}
	if ty := infer(t, AggE(Count, T("Y"))); !types.Equal(ty, types.IntType) {
		t.Errorf("count type = %s", ty)
	}
	if ty := infer(t, AggE(Avg, MapE("y", Dot(V("y"), "d"), T("Y")))); !types.Equal(ty, types.FloatType) {
		t.Errorf("avg type = %s", ty)
	}
	if ty := infer(t, AggE(Max, MapE("y", Dot(V("y"), "d"), T("Y")))); !types.Equal(ty, types.IntType) {
		t.Errorf("max type = %s", ty)
	}
}

func TestInferPointerNavigation(t *testing.T) {
	// Field through a Ref type reaches the class tuple.
	ty := infer(t, MapE("s", Dot(V("s"), "ref", "pname"), T("S")))
	if ty.String() != "{string}" {
		t.Errorf("navigation type = %s", ty)
	}
	// Materialize on a scalar ref and on a ref set.
	ty = infer(t, Mat(T("S"), "ref", "obj"))
	if !strings.Contains(ty.String(), "obj: (pid: oid, pname: string)") {
		t.Errorf("materialize scalar type = %s", ty)
	}
	ty = infer(t, Mat(T("S"), "refs", "objs"))
	if !strings.Contains(ty.String(), "objs: {(pid: oid, pname: string)}") {
		t.Errorf("materialize set type = %s", ty)
	}
	inferErr(t, Mat(T("S"), "sid", "o")) // non-reference attribute
}

func TestInferLetAndFreeVars(t *testing.T) {
	ty := infer(t, LetE("v", T("Y"), V("v")))
	if ty.String() != "{(d: int, e: int)}" {
		t.Errorf("let type = %s", ty)
	}
	inferErr(t, V("unbound"))
}

func TestInferScalarOps(t *testing.T) {
	if ty := infer(t, Flat(MapE("x", Dot(V("x"), "c"), T("X")))); ty.String() != "{(d: int, e: int)}" {
		t.Errorf("flatten type = %s", ty)
	}
	inferErr(t, Flat(T("Y"))) // set of tuples, not of sets
	if ty := infer(t, &SetOp{Op: Union, L: T("Y"), R: T("Y")}); ty.String() != "{(d: int, e: int)}" {
		t.Errorf("∪ type = %s", ty)
	}
	inferErr(t, &SetOp{Op: Union, L: T("Y"), R: T("X")})
	if ty := infer(t, &Arith{Op: Add, L: CInt(1), R: CInt(2)}); !types.Equal(ty, types.IntType) {
		t.Errorf("arith type = %s", ty)
	}
	// Tuple ops.
	env := TypeEnv{"t": types.NewTuple("a", types.IntType, "b", types.StringType)}
	ty, err := Infer(SubT(V("t"), "b"), env, testResolver{})
	if err != nil || ty.String() != "(b: string)" {
		t.Errorf("subscript type = %s, %v", ty, err)
	}
	// A repeated attribute would type as a tuple with two fields of one name.
	if ty, err := Infer(SubT(V("t"), "a", "a"), env, testResolver{}); err == nil ||
		!strings.Contains(err.Error(), `repeats attribute "a"`) {
		t.Errorf("subscript [a, a] = %v, %v; want a repeated-attribute error", ty, err)
	}
	ty, err = Infer(Exc(V("t"), "a", CStr("s"), "z", CInt(1)), env, testResolver{})
	if err != nil || ty.String() != "(a: string, b: string, z: int)" {
		t.Errorf("except type = %s, %v", ty, err)
	}
	ty, err = Infer(Cat(SubT(V("t"), "a"), SubT(V("t"), "b")), env, testResolver{})
	if err != nil || ty.String() != "(a: int, b: string)" {
		t.Errorf("concat type = %s, %v", ty, err)
	}
}
