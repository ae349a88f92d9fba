package exec

import (
	"strings"
	"testing"

	"repro/internal/adl"
	"repro/internal/bench"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/value"
)

// TestParamWithoutArgument: a plan holding a parameter (adl.Param) runs with
// its argument as the plan holding the literal does, and run without it fails
// with an error naming the parameter — never a panic, never a row — whether
// a compiled scalar, an index bound, a column kernel or the interpreter reads
// it.
func TestParamWithoutArgument(t *testing.T) {
	st := bench.Generate(bench.Config{Suppliers: 5, Parts: 60, Seed: 7})
	if err := st.CreateIndex("PART", "price", storage.OrderedIndex); err != nil {
		t.Fatal(err)
	}
	param := &adl.Param{Slot: 1, Type: types.IntType}
	cheap := func(v string, x adl.Expr) adl.Expr { return adl.CmpE(adl.Lt, adl.Dot(adl.V(v), "price"), x) }
	for _, c := range []struct {
		name string
		plan func(x adl.Expr) Operator
	}{
		{"Filter", func(x adl.Expr) Operator {
			return &Filter{Child: &Scan{Table: "PART"}, Var: "p", Pred: NewScalar(cheap("p", x), "p")}
		}},
		{"IndexScan bound", func(x adl.Expr) Operator {
			hi := NewScalar(x)
			return &IndexScan{Table: "PART", Attr: "price", Hi: &hi}
		}},
		{"ColumnScan kernel", func(x adl.Expr) Operator {
			k := VecCmp{Attr: "price", Op: adl.Lt, Pred: NewScalar(cheap("p", x), "p")}
			if p, ok := x.(*adl.Param); ok {
				k.Param = p
			} else {
				k.Const = x.(*adl.Const).Val
			}
			return &ColumnScan{Extent: "PART", Attrs: []string{"price"}, Var: "p", Kernels: []VecCmp{k}}
		}},
		{"interpreter fallback", func(x adl.Expr) Operator {
			return &ExprScan{Expr: adl.Sel("p", cheap("p", x), adl.T("PART"))}
		}},
		{"interpreter under a compiled scalar", func(x adl.Expr) Operator {
			pred := adl.Ex("q", adl.T("PART"), adl.AndE(cheap("q", x), adl.EqE(adl.V("q"), adl.V("p"))))
			return &Filter{Child: &Scan{Table: "PART"}, Var: "p", Pred: NewScalar(pred, "p")}
		}},
	} {
		want, err := Collect(c.plan(adl.CInt(30)), &Ctx{DB: st})
		if err != nil || want.Len() == 0 {
			t.Fatalf("%s with the literal: %d rows, %v", c.name, want.Len(), err)
		}
		got, err := Collect(c.plan(param), &Ctx{DB: st, Args: []value.Value{value.Int(99), value.Int(30)}})
		if err != nil || !value.Equal(got, want) {
			t.Fatalf("%s with the argument: %v, %v; want %v", c.name, got, err, want)
		}
		for _, args := range [][]value.Value{nil, {value.Int(30)}} {
			got, err := Collect(c.plan(param), &Ctx{DB: st, Args: args})
			if err == nil || !strings.Contains(err.Error(), "parameter $1") || got != nil {
				t.Errorf("%s with %d arguments: %v, %v; want an error naming $1", c.name, len(args), got, err)
			}
		}
	}
}
