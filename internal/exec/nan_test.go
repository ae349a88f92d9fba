package exec

import (
	"math"
	"testing"

	"repro/internal/adl"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/value"
)

// TestNaNIsUnordered: σ[x.f ≤ c] and σ[x.f ≥ c] over an extent with a NaN
// row return one set under the interpreter, the compiled Filter, ColumnScan's
// kernel and an ordered IndexScan. Under IEEE order a NaN, stored or as the
// bound, satisfies no ordered comparison.
func TestNaNIsUnordered(t *testing.T) {
	cat := schema.NewCatalog()
	if err := cat.Define(&schema.Class{Name: "Reading", Extent: "F", IDField: "fid",
		Attrs: []schema.Attr{{Name: "f", Type: types.FloatType}}}); err != nil {
		t.Fatal(err)
	}
	st := storage.New(cat)
	for _, f := range []float64{0.5, math.NaN(), 1, math.Inf(-1), 2, math.NaN()} {
		if _, err := st.Insert("F", value.NewTuple("f", value.Float(f))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CreateIndex("F", "f", storage.OrderedIndex); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		op   adl.CmpOp
		c    float64
		want int
	}{
		{adl.Le, 1, 3}, {adl.Ge, 1, 2},
		{adl.Le, math.NaN(), 0}, {adl.Ge, math.NaN(), 0},
	} {
		c := value.Float(tc.c)
		pred := adl.CmpE(tc.op, adl.Dot(adl.V("x"), "f"), adl.C(c))
		bound := NewScalar(adl.C(c))
		idx := &IndexScan{Table: "F", Attr: "f"}
		if tc.op == adl.Le {
			idx.Hi, idx.HiIncl = &bound, true
		} else {
			idx.Lo, idx.LoIncl = &bound, true
		}
		want := evalRef(t, adl.Sel("x", pred, adl.T("F")), st)
		if want.Len() != tc.want {
			t.Errorf("interpreter: x.f %s %v returned %v, want %d rows", tc.op, c, want, tc.want)
		}
		for name, op := range map[string]Operator{
			"Filter":     &Filter{Child: &Scan{Table: "F"}, Var: "x", Pred: NewScalar(pred, "x")},
			"ColumnScan": colScan("F", []string{"f"}, fieldKernel("f", tc.op, c)),
			"IndexScan":  idx,
		} {
			if got := collect(t, op, st); !value.Equal(got, want) {
				t.Errorf("%s: x.f %s %v returned %v, interpreter %v", name, tc.op, c, got, want)
			}
		}
	}
}
