package exec

import (
	"testing"

	"repro/internal/adl"
	"repro/internal/value"
)

func TestLetOpBindsOnce(t *testing.T) {
	d := db(23, 5, 5)
	// Let v = R in filter L by (x.b, x.b) membership against v's d values.
	inner := &Filter{Child: &Scan{Table: "L"}, Var: "x",
		Pred: NewScalar(adl.Ex("y", adl.V("v"),
			adl.EqE(adl.Dot(adl.V("y"), "d"), adl.Dot(adl.V("x"), "b"))), "x")}
	op := &LetOp{Var: "v", Val: adl.T("R"), Child: inner}
	want := evalRef(t, adl.LetE("v", adl.T("R"),
		adl.Sel("x", adl.Ex("y", adl.V("v"),
			adl.EqE(adl.Dot(adl.V("y"), "d"), adl.Dot(adl.V("x"), "b"))), adl.T("L"))), d)
	if got := collect(t, op, d); !value.Equal(got, want) {
		t.Errorf("LetOp = %v, want %v", got, want)
	}
}
