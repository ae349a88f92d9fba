package exec

import (
	"testing"

	"repro/internal/adl"
	"repro/internal/eval"
	"repro/internal/storage"
	"repro/internal/value"
)

// crossRows is a table size that spans three batches, the last one partial.
const crossRows = 2*DefaultBatchSize + 37

// colScan builds a serial ColumnScan over x in table, reading attrs
// columnar.
func colScan(table string, attrs []string, ks ...VecCmp) *ColumnScan {
	return &ColumnScan{Extent: table, Attrs: attrs, Var: "x", Kernels: ks}
}

// fieldPred builds the conjunct x.attr <op> const and its compiled kernel.
func fieldKernel(attr string, op adl.CmpOp, c value.Value) VecCmp {
	pred := adl.CmpE(op, adl.Dot(adl.V("x"), attr), adl.C(c))
	return VecCmp{Attr: attr, Op: op, Const: c, Pred: NewScalar(pred, "x")}
}

// colKernel builds the conjunct x.l <op> x.r and its compiled kernel.
func colKernel(l string, op adl.CmpOp, r string) VecCmp {
	pred := adl.CmpE(op, adl.Dot(adl.V("x"), l), adl.Dot(adl.V("x"), r))
	return VecCmp{Attr: l, Op: op, RAttr: r, Pred: NewScalar(pred, "x")}
}

// TestVecFilterAgainstScalar checks every kernel op of a ColumnScan against
// the scalar Filter on randomized int tables, small and spanning batches.
func TestVecFilterAgainstScalar(t *testing.T) {
	ops := []adl.CmpOp{adl.Eq, adl.Ne, adl.Lt, adl.Le, adl.Gt, adl.Ge}
	for seed := int64(1); seed <= 3; seed++ {
		for _, rows := range []int{30, crossRows} {
			d := db(seed, rows, 20)
			for _, op := range ops {
				k := fieldKernel("b", op, value.Int(4))
				got := collect(t, colScan("L", []string{"b"}, k), d)
				want := collect(t, &Filter{Child: &Scan{Table: "L"}, Var: "x", Pred: k.Pred}, d)
				if !value.Equal(got, want) {
					t.Errorf("seed %d op %v rows %d: got %v want %v", seed, op, rows, got, want)
				}

				ck := colKernel("a", op, "b")
				got2 := collect(t, colScan("L", []string{"a", "b"}, ck), d)
				want2 := collect(t, &Filter{Child: &Scan{Table: "L"}, Var: "x", Pred: ck.Pred}, d)
				if !value.Equal(got2, want2) {
					t.Errorf("seed %d col-col op %v rows %d: got %v want %v", seed, op, rows, got2, want2)
				}
			}
		}
	}
}

// TestVecFilterConjunctChain checks multiple kernels narrow in sequence.
func TestVecFilterConjunctChain(t *testing.T) {
	d := db(5, crossRows, 10)
	ks := []VecCmp{
		fieldKernel("b", adl.Lt, value.Int(6)),
		fieldKernel("a", adl.Ge, value.Int(3)),
		fieldKernel("b", adl.Ne, value.Int(2)),
	}
	got := collect(t, colScan("L", []string{"a", "b"}, ks...), d)

	pred := adl.AndE(ks[0].Pred.Expr, ks[1].Pred.Expr, ks[2].Pred.Expr)
	sf := &Filter{Child: &Scan{Table: "L"}, Var: "x", Pred: NewScalar(pred, "x")}
	want := collect(t, sf, d)
	if !value.Equal(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

// TestVecFilterCrossKindAndFallback checks the semantics corners: cross-kind
// Eq/Ne kernels, ordered comparisons that must fall back and error exactly
// like the interpreter, and Mixed columns going row-wise.
func TestVecFilterCrossKindAndFallback(t *testing.T) {
	d := db(2, crossRows, 5)

	// Cross-kind Eq on an int column: empty; Ne: everything.
	eq := fieldKernel("b", adl.Eq, value.String("x"))
	if got := collect(t, colScan("L", []string{"b"}, eq), d); got.Len() != 0 {
		t.Errorf("cross-kind Eq kept %d rows", got.Len())
	}
	ne := fieldKernel("b", adl.Ne, value.String("x"))
	all := collect(t, &Scan{Table: "L"}, d)
	if got := collect(t, colScan("L", []string{"b"}, ne), d); !value.Equal(got, all) {
		t.Errorf("cross-kind Ne dropped rows: %v", got)
	}

	// Cross-kind ordered comparison: the scalar arm errors; the vectorized
	// arm must produce the identical error.
	lt := fieldKernel("b", adl.Lt, value.String("x"))
	_, vecErr := Collect(colScan("L", []string{"b"}, lt), &Ctx{DB: d})
	sf := &Filter{Child: &Scan{Table: "L"}, Var: "x", Pred: lt.Pred}
	_, scalErr := Collect(sf, &Ctx{DB: d})
	if vecErr == nil || scalErr == nil || vecErr.Error() != scalErr.Error() {
		t.Errorf("error mismatch: vec=%v scalar=%v", vecErr, scalErr)
	}

	// A set-valued constant against a set column has no kernel: row-wise.
	for _, op := range []adl.CmpOp{adl.Eq, adl.Ne} {
		k := fieldKernel("parts", op, value.EmptySet())
		got := collect(t, colScan("N", []string{"parts"}, k), d)
		want := collect(t, &Filter{Child: &Scan{Table: "N"}, Var: "x", Pred: k.Pred}, d)
		if !value.Equal(got, want) || want.Len() == 0 {
			t.Errorf("set constant, op %v: got %v want %v", op, got, want)
		}
	}

	// A column absent from the projection attrs is nil → row-wise fallback,
	// still correct.
	k := fieldKernel("b", adl.Lt, value.Int(4))
	got := collect(t, colScan("L", nil, k), d)
	want := collect(t, &Filter{Child: &Scan{Table: "L"}, Var: "x", Pred: k.Pred}, d)
	if !value.Equal(got, want) {
		t.Errorf("fallback: got %v want %v", got, want)
	}
}

// streamed drives op through the plain Open/Next/Close contract and returns
// its rows in order. Collect and drain take a blocking stream's buffer whole,
// so without this loop its row-at-a-time side would go untested.
func streamed(t *testing.T, op Operator, d eval.DB) []value.Value {
	t.Helper()
	rows, err := op.Open(&Ctx{DB: d})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	out, err := readAll(rows, nil)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return out
}

// rowFacade is the set of op's rows read through its stream.
func rowFacade(t *testing.T, op Operator, d eval.DB) *value.Set {
	t.Helper()
	return value.NewSetFromSlice(streamed(t, op, d))
}

// TestRowFacadesMatchBulkCollect checks that the stream of a ColumnScan and
// of the joins over one yields row by row exactly
// what Collect's bulk set build yields.
func TestRowFacadesMatchBulkCollect(t *testing.T) {
	d := db(11, crossRows, 14)
	lkey := NewScalar(adl.Dot(adl.V("x"), "b"), "x")
	rkey := NewScalar(adl.Dot(adl.V("y"), "d"), "y")
	makers := map[string]func() Operator{
		"scan": func() Operator {
			return colScan("L", []string{"a", "b"}, fieldKernel("b", adl.Ge, value.Int(2)))
		},
		"inner": func() Operator {
			return &HashJoin{Kind: adl.Inner, L: colScan("L", nil), R: &Scan{Table: "R"},
				LVar: "x", RVar: "y", LKey: lkey, RKey: rkey}
		},
		"semi": func() Operator {
			return &HashJoin{Kind: adl.Semi, L: colScan("L", nil), R: &Scan{Table: "R"},
				LVar: "x", RVar: "y", LKey: lkey, RKey: rkey}
		},
		"set-anti": func() Operator {
			return &HashJoin{Kind: adl.Anti, L: colScan("N", nil), R: &Scan{Table: "R"},
				In: "parts", RKey: NewScalar(adl.Tup("k", adl.Dot(adl.V("y"), "d"), "w", adl.Dot(adl.V("y"), "c")), "y")}
		},
	}
	for name, mk := range makers {
		want := collect(t, mk(), d)
		got := rowFacade(t, mk(), d)
		if !value.Equal(got, want) {
			t.Errorf("%s: row facade %v, bulk %v", name, got, want)
		}
	}
}

// TestVecFilterFloatAndStringKernels checks the float and string compare
// kernels (const and column-column) against the scalar Filter for every op.
func TestVecFilterFloatAndStringKernels(t *testing.T) {
	set := value.EmptySet()
	names := []string{"ash", "birch", "cedar", "fir", "oak"}
	for i := 0; i < crossRows; i++ {
		set.Add(value.NewTuple(
			"i", value.Int(int64(i)),
			"f", value.Float(float64(i%7))/2,
			"g", value.Float(float64(i%5)),
			"s", value.String(names[i%5]),
			"u", value.String(names[(i*3)%5])))
	}
	d := storage.NewMemDB("S", set)
	for _, op := range []adl.CmpOp{adl.Eq, adl.Ne, adl.Lt, adl.Le, adl.Gt, adl.Ge} {
		for _, k := range []VecCmp{
			fieldKernel("f", op, value.Float(1.5)),
			fieldKernel("s", op, value.String("cedar")),
			colKernel("f", op, "g"),
			colKernel("s", op, "u"),
		} {
			attrs := []string{k.Attr}
			if k.RAttr != "" {
				attrs = append(attrs, k.RAttr)
			}
			got := collect(t, colScan("S", attrs, k), d)
			sf := &Filter{Child: &Scan{Table: "S"}, Var: "x", Pred: k.Pred}
			want := collect(t, sf, d)
			if !value.Equal(got, want) {
				t.Errorf("op %v attr %s/%s: got %v want %v", op, k.Attr, k.RAttr, got, want)
			}
		}
	}
}
