package exec

import (
	"testing"

	"repro/internal/adl"
	"repro/internal/eval"
	"repro/internal/storage"
	"repro/internal/value"
)

// vecScan builds a batch scan over a table with a deliberately small batch
// size so multi-batch paths are exercised even on tiny tables.
func vecScan(table string, attrs []string, batch int) *VecScan {
	return &VecScan{Extent: table, Attrs: attrs, Batch: batch}
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

// TestVecFilterAgainstScalar checks every kernel op against the scalar
// Filter on randomized int tables, across batch sizes.
func TestVecFilterAgainstScalar(t *testing.T) {
	ops := []adl.CmpOp{adl.Eq, adl.Ne, adl.Lt, adl.Le, adl.Gt, adl.Ge}
	for seed := int64(1); seed <= 3; seed++ {
		d := db(seed, 30, 20)
		for _, op := range ops {
			for _, batch := range []int{1, 7, 0} { // 0 → DefaultBatchSize
				k := fieldKernel("b", op, value.Int(4))
				vf := &VecFilter{Src: vecScan("L", []string{"b"}, batch), Var: "x", Kernels: []VecCmp{k}}
				got := collect(t, &VecAdapter{Src: vf}, d)

				sf := &Filter{Child: &Scan{Table: "L"}, Var: "x", Pred: k.Pred}
				want := collect(t, sf, d)
				if !value.Equal(got, want) {
					t.Errorf("seed %d op %v batch %d: got %v want %v", seed, op, batch, got, want)
				}

				ck := colKernel("a", op, "b")
				vf2 := &VecFilter{Src: vecScan("L", []string{"a", "b"}, batch), Var: "x", Kernels: []VecCmp{ck}}
				got2 := collect(t, &VecAdapter{Src: vf2}, d)
				sf2 := &Filter{Child: &Scan{Table: "L"}, Var: "x", Pred: ck.Pred}
				want2 := collect(t, sf2, d)
				if !value.Equal(got2, want2) {
					t.Errorf("seed %d col-col op %v batch %d: got %v want %v", seed, op, batch, got2, want2)
				}
			}
		}
	}
}

// TestVecFilterConjunctChain checks multiple kernels narrow in sequence.
func TestVecFilterConjunctChain(t *testing.T) {
	d := db(5, 40, 10)
	ks := []VecCmp{
		fieldKernel("b", adl.Lt, value.Int(6)),
		fieldKernel("a", adl.Ge, value.Int(3)),
		fieldKernel("b", adl.Ne, value.Int(2)),
	}
	vf := &VecFilter{Src: vecScan("L", []string{"a", "b"}, 8), Var: "x", Kernels: ks}
	got := collect(t, &VecAdapter{Src: vf}, d)

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
	d := db(2, 10, 5)

	// Cross-kind Eq on an int column: empty; Ne: everything.
	eq := fieldKernel("b", adl.Eq, value.String("x"))
	vf := &VecFilter{Src: vecScan("L", []string{"b"}, 4), Var: "x", Kernels: []VecCmp{eq}}
	if got := collect(t, &VecAdapter{Src: vf}, d); got.Len() != 0 {
		t.Errorf("cross-kind Eq kept %d rows", got.Len())
	}
	ne := fieldKernel("b", adl.Ne, value.String("x"))
	vf = &VecFilter{Src: vecScan("L", []string{"b"}, 4), Var: "x", Kernels: []VecCmp{ne}}
	all := collect(t, &Scan{Table: "L"}, d)
	if got := collect(t, &VecAdapter{Src: vf}, d); !value.Equal(got, all) {
		t.Errorf("cross-kind Ne dropped rows: %v", got)
	}

	// Cross-kind ordered comparison: the scalar arm errors; the vectorized
	// arm must produce the identical error.
	lt := fieldKernel("b", adl.Lt, value.String("x"))
	vf = &VecFilter{Src: vecScan("L", []string{"b"}, 4), Var: "x", Kernels: []VecCmp{lt}}
	_, vecErr := Collect(&VecAdapter{Src: vf}, &Ctx{DB: d})
	sf := &Filter{Child: &Scan{Table: "L"}, Var: "x", Pred: lt.Pred}
	_, scalErr := Collect(sf, &Ctx{DB: d})
	if vecErr == nil || scalErr == nil || vecErr.Error() != scalErr.Error() {
		t.Errorf("error mismatch: vec=%v scalar=%v", vecErr, scalErr)
	}

	// A set-valued constant against a set column has no kernel: row-wise.
	for _, op := range []adl.CmpOp{adl.Eq, adl.Ne} {
		k := fieldKernel("parts", op, value.EmptySet())
		vf = &VecFilter{Src: vecScan("N", []string{"parts"}, 4), Var: "x", Kernels: []VecCmp{k}}
		got := collect(t, &VecAdapter{Src: vf}, d)
		want := collect(t, &Filter{Child: &Scan{Table: "N"}, Var: "x", Pred: k.Pred}, d)
		if !value.Equal(got, want) || want.Len() == 0 {
			t.Errorf("set constant, op %v: got %v want %v", op, got, want)
		}
	}

	// A column absent from the projection attrs is nil → row-wise fallback,
	// still correct.
	k := fieldKernel("b", adl.Lt, value.Int(4))
	vf = &VecFilter{Src: vecScan("L", nil, 4), Var: "x", Kernels: []VecCmp{k}}
	got := collect(t, &VecAdapter{Src: vf}, d)
	want := collect(t, &Filter{Child: &Scan{Table: "L"}, Var: "x", Pred: k.Pred}, d)
	if !value.Equal(got, want) {
		t.Errorf("fallback: got %v want %v", got, want)
	}
}

// rowFacade drives op through the plain Open/Next/Close contract. Collect and
// drain take a blocking stream's buffer whole, so without this loop its
// row-at-a-time side would go untested.
func rowFacade(t *testing.T, op Operator, d eval.DB) *value.Set {
	t.Helper()
	ctx := &Ctx{DB: d}
	rows, err := op.Open(ctx)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got := value.EmptySet()
	for {
		v, ok, err := rows.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			break
		}
		got.Add(v)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return got
}

// TestRowFacadesMatchBulkCollect checks that the stream of a batch pipeline,
// and of the joins over one, yields row by row exactly what Collect's bulk
// set build yields.
func TestRowFacadesMatchBulkCollect(t *testing.T) {
	d := db(11, 20, 14)
	lkey := NewScalar(adl.Dot(adl.V("x"), "b"), "x")
	rkey := NewScalar(adl.Dot(adl.V("y"), "d"), "y")
	makers := map[string]func() Operator{
		"adapter": func() Operator {
			vf := &VecFilter{Src: vecScan("L", []string{"a", "b"}, 6), Var: "x",
				Kernels: []VecCmp{fieldKernel("b", adl.Ge, value.Int(2))}}
			return &VecAdapter{Src: vf}
		},
		"inner": func() Operator {
			return &HashJoin{Kind: adl.Inner, L: &VecAdapter{Src: vecScan("L", nil, 5)}, R: &Scan{Table: "R"},
				LVar: "x", RVar: "y", LKey: lkey, RKey: rkey}
		},
		"semi-partitioned": func() Operator {
			return &HashJoin{Kind: adl.Semi, L: &VecAdapter{Src: vecScan("L", nil, 5)}, R: &Scan{Table: "R"},
				LVar: "x", RVar: "y", LKey: lkey, RKey: rkey, Partitions: 3}
		},
		"set-anti": func() Operator {
			return &SetProbeJoin{Kind: adl.Anti, L: &VecAdapter{Src: vecScan("N", nil, 5)}, R: &Scan{Table: "R"},
				Attr: "parts", RKey: NewScalar(adl.Tup("k", adl.Dot(adl.V("y"), "d"), "w", adl.Dot(adl.V("y"), "c")), "y")}
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
	for i := 0; i < 25; i++ {
		set.Add(value.NewTuple(
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
			vf := &VecFilter{Src: vecScan("S", attrs, 4), Var: "x", Kernels: []VecCmp{k}}
			got := collect(t, &VecAdapter{Src: vf}, d)
			sf := &Filter{Child: &Scan{Table: "S"}, Var: "x", Pred: k.Pred}
			want := collect(t, sf, d)
			if !value.Equal(got, want) {
				t.Errorf("op %v attr %s/%s: got %v want %v", op, k.Attr, k.RAttr, got, want)
			}
		}
	}
}
