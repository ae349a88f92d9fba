package exec

import (
	"math"
	"strings"
	"testing"

	"repro/internal/adl"
	"repro/internal/col"
	"repro/internal/eval"
	"repro/internal/storage"
	"repro/internal/value"
)

// TestColumnScanOutAgainstEval: a ColumnScan that emits attribute Out (α
// fused into it) returns the interpreter's α[x: x.Out](σ(L)) — the same set,
// or the same error text — over three batches. A typed
// column hands up its stored values and hashes: strings that need escaping,
// duplicates that dedupe, NaNs that do not, −0 and +0 as one element. A
// Mixed column reads the rows: mixed kinds, and an attribute missing on one
// row, whose error is α's unless a kernel fails on any row, whose error wins
// as it does over an unfused α. An empty extent returns the empty set.
func TestColumnScanOutAgainstEval(t *testing.T) {
	const n = crossRows
	x := adl.V("x")
	rows := func(f func(i int) *value.Tuple) []value.Value {
		out := make([]value.Value, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	strs := []string{`say "hi"`, "line\nbreak", `back\slash`, "tab\t", "ünï", ""}
	nan := value.Float(math.NaN())
	floats := []value.Value{nan, value.Float(math.Copysign(0, -1)), value.Float(0), value.Float(1.5), nan}
	kinds := []value.Value{value.Int(1), value.String("1"), value.Float(1), value.Bool(true), value.NewSet(value.Int(1))}
	missing := rows(func(i int) *value.Tuple { return value.NewTuple("a", value.Int(int64(i%5)), "b", value.Int(int64(i))) })
	missing[DefaultBatchSize+7] = value.NewTuple("b", value.Int(0))
	failing := append([]value.Value(nil), missing...)
	failing[2*DefaultBatchSize+3] = value.NewTuple("a", value.Int(1), "b", value.String("s"))
	cases := []struct {
		name  string
		rows  []value.Value
		out   string
		pred  adl.Expr // nil: no kernel
		typed bool
		err   string // in the interpreter's error, "" if it has none
	}{
		{"escaped strings", rows(func(i int) *value.Tuple {
			return value.NewTuple("s", value.String(strs[i%len(strs)]), "b", value.Int(int64(i)))
		}), "s", nil, true, ""},
		{"floats", rows(func(i int) *value.Tuple {
			return value.NewTuple("f", floats[i%len(floats)], "b", value.Int(int64(i)))
		}), "f", adl.CmpE(adl.Lt, adl.Dot(x, "b"), adl.CInt(2*DefaultBatchSize)), true, ""},
		{"dates under a kernel", rows(func(i int) *value.Tuple {
			return value.NewTuple("d", value.Date(940101+i%9), "b", value.Int(int64(i%4)))
		}), "d", adl.EqE(adl.Dot(x, "b"), adl.CInt(2)), true, ""},
		{"mixed kinds", rows(func(i int) *value.Tuple {
			return value.NewTuple("a", kinds[i%len(kinds)], "b", value.Int(int64(i)))
		}), "a", adl.CmpE(adl.Ge, adl.Dot(x, "b"), adl.CInt(3)), false, ""},
		{"missing attribute", missing, "a", nil, false, "no attribute"},
		{"missing attribute, failing kernel", failing, "a", adl.CmpE(adl.Lt, adl.Dot(x, "b"), adl.CInt(5)), false, "string"},
		{"empty extent", nil, "a", adl.EqE(adl.Dot(x, "b"), adl.CInt(2)), false, ""},
	}
	for _, c := range cases {
		d := storage.NewMemDB("L", value.NewSetFromSlice(c.rows))
		if k := col.New("L", c.rows, []string{c.out}).Col(c.out).Kind(); (k != col.Mixed) != c.typed {
			t.Fatalf("%s: column kind %d, want typed %t", c.name, k, c.typed)
		}
		var src adl.Expr = adl.T("L")
		var ks []VecCmp
		attrs := []string{c.out}
		if c.pred != nil {
			src = adl.Sel("x", c.pred, src)
			cmp := c.pred.(*adl.Cmp)
			k := fieldKernel(cmp.L.(*adl.Field).Name, cmp.Op, cmp.R.(*adl.Const).Val)
			ks, attrs = append(ks, k), append(attrs, k.Attr)
		}
		want, wantErr := eval.EvalSet(adl.MapE("x", adl.Dot(x, c.out), src), nil, d)
		if (wantErr == nil) != (c.err == "") || wantErr != nil && !strings.Contains(wantErr.Error(), c.err) {
			t.Fatalf("%s: the interpreter fails with %v, want an error with %q", c.name, wantErr, c.err)
		}
		scan := &ColumnScan{Extent: "L", Attrs: attrs, Var: "x", Kernels: ks, Out: c.out}
		got, err := Collect(scan, &Ctx{DB: d})
		switch {
		case wantErr != nil || err != nil:
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Errorf("%s: error %v, want %v", c.name, err, wantErr)
			}
		case got.Len() != want.Len() || got.String() != want.String():
			t.Errorf("%s: %d elements %s, want %d %s", c.name, got.Len(), got, want.Len(), want)
		}
	}
}
