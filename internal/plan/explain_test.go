package plan

import (
	"strings"
	"testing"

	"repro/internal/adl"
	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/value"
)

func TestRunEndToEnd(t *testing.T) {
	st := bench.Generate(bench.Config{Suppliers: 6, Parts: 8, Seed: 3})
	got, err := Run(adl.Sel("p",
		adl.EqE(adl.Dot(adl.V("p"), "color"), adl.CStr("red")), adl.T("PART")), st)
	if err != nil {
		t.Fatal(err)
	}
	for _, el := range got.Elems() {
		if !value.Equal(el.(*value.Tuple).MustGet("color"), value.String("red")) {
			t.Errorf("Run returned non-red part: %v", el)
		}
	}
	if _, err := Run(adl.T("NOPE"), st); err == nil {
		t.Errorf("Run must surface execution errors")
	}
}

// TestExplainCoversEveryOperator drives Explain over one instance of each
// physical operator and checks each renders a recognizable line, with every
// child rendered beneath it, indented.
func TestExplainCoversEveryOperator(t *testing.T) {
	key := exec.NewScalar(adl.Dot(adl.V("x"), "a"), "x")
	rkey := exec.NewScalar(adl.Dot(adl.V("y"), "d"), "y")
	pred := exec.NewScalar(adl.CBool(true), "x", "y")
	scanL := func() exec.Operator { return &exec.Scan{Table: "L"} }
	scanR := func() exec.Operator { return &exec.Scan{Table: "R"} }
	cases := []struct {
		op   exec.Operator
		want string
		leaf bool
	}{
		{scanL(), "Scan(L)", true},
		{&exec.ExprScan{Expr: adl.T("L")}, "interpreter fallback", true},
		{&exec.IndexScan{Table: "L", Attr: "a", Eq: &key}, "IndexScan(L.a = x.a)", true},
		{&exec.Filter{Child: scanL(), Var: "x", Pred: exec.NewScalar(adl.CBool(true), "x")}, "Filter[x", false},
		{&exec.MapOp{Child: scanL(), Var: "x", Body: key}, "Map[x", false},
		{&exec.ProjectOp{Child: scanL(), Attrs: []string{"a"}}, "Project[a]", false},
		{&exec.UnnestOp{Child: scanL(), Attr: "c"}, "Unnest[c]", false},
		{&exec.NestOp{Child: scanL(), Attrs: []string{"a"}, As: "g"}, "Nest[{a} -> g]", false},
		{&exec.FlattenOp{Child: scanL()}, "Flatten", false},
		{&exec.Assembly{Child: scanL(), Attr: "r", As: "o"}, "Assembly[r -> o]", false},
		{&exec.LetOp{Var: "v", Val: adl.T("R"), Child: scanL()}, "Let[v = R]", false},
		{&exec.HashJoin{Kind: adl.Inner, L: scanL(), R: scanR(), LKey: key, RKey: rkey}, "HashJoin[⋈", false},
		{&exec.HashJoin{Kind: adl.Semi, L: scanL(), R: scanR(), In: "c", RKey: rkey}, "HashJoin[⋉ on y.d ∈ .c]", false},
		{&exec.IndexNLJoin{Kind: adl.Semi, L: scanL(), Table: "R", Attr: "d", LKey: key}, "IndexNLJoin[⋉", false},
		{&exec.NLJoin{Kind: adl.Anti, L: scanL(), R: scanR(), Pred: pred}, "NLJoin[▷", false},
		{&exec.PNHL{L: scanL(), R: scanR(), Attr: "c", ElemKey: key, BuildKey: rkey, BudgetRows: 7}, "PNHL[.c with budget 7", false},
	}
	for _, c := range cases {
		out := Explain(c.op)
		if !strings.Contains(out, c.want) {
			t.Errorf("Explain(%T) = %q, want contains %q", c.op, out, c.want)
		}
		if hasChild := strings.Contains(out, "\n  Scan(L)\n"); hasChild == c.leaf {
			t.Errorf("Explain(%T) renders its child Scan(L) indented: %v, want %v:\n%s", c.op, hasChild, !c.leaf, out)
		}
	}
}
