package exec_test

import (
	"fmt"
	"testing"

	"repro/internal/adl"
	"repro/internal/bench"
	"repro/internal/eval"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/value"
)

// unnestJoins are the three plans of L′ ⋉/▷ R with L′ = μ_attr(L) and the
// equi-predicate lkey = rkey over x and y: the hash join expanding μ itself,
// the hash join over UnnestOp, and the nested loop over UnnestOp.
func unnestJoins(kind adl.JoinKind, l exec.Operator, attr string, r exec.Operator, lkey, rkey adl.Expr) (fused, unfused, nl exec.Operator) {
	mu := &exec.UnnestOp{Child: l, Attr: attr}
	hj := func(l exec.Operator, unnest string) *exec.HashJoin {
		return &exec.HashJoin{Kind: kind, L: l, R: r, LVar: "x", RVar: "y",
			LKey: exec.NewScalar(lkey, "x"), RKey: exec.NewScalar(rkey, "y"), Unnest: unnest}
	}
	return hj(l, attr), hj(mu, ""), &exec.NLJoin{Kind: kind, L: mu, R: r, LVar: "x", RVar: "y",
		Pred: exec.NewScalar(adl.EqE(lkey, rkey), "x", "y")}
}

// TestHashJoinUnnestAgainstUnnestOp checks the hash join that expands μ inside
// its probe against the same join over UnnestOp and against the nested loop:
// equal results on stores with empty sets and dangling references, for every
// shape of left key — read off a unary element, off a wider element, off the
// rest of the row, and computed (which builds every row) — and the same error
// for every fault μ or the key can meet, wherever it sits.
func TestHashJoinUnnestAgainstUnnestOp(t *testing.T) {
	x, y := adl.V("x"), adl.V("y")
	scan := func(table string) exec.Operator { return &exec.Scan{Table: table} }
	red := func(table string) exec.Operator {
		return &exec.Filter{Child: scan(table), Var: "p",
			Pred: exec.NewScalar(adl.EqE(adl.Dot(adl.V("p"), "color"), adl.CStr("red")), "p")}
	}
	early := &exec.Filter{Child: scan("SUPPLIER"), Var: "s",
		Pred: exec.NewScalar(adl.CmpE(adl.Lt, adl.Dot(adl.V("s"), "sname"), adl.CStr("supplier-3")), "s")}
	cases := []struct {
		name       string
		l          exec.Operator
		attr       string
		r          exec.Operator
		lkey, rkey adl.Expr
		probeAttr  string // the attribute the join reads its key off; "": it builds the rows
	}{
		{"unary element", scan("SUPPLIER"), "parts", scan("PART"),
			adl.SubT(x, "pid"), adl.SubT(y, "pid"), "pid"},
		{"unary element, field key", scan("SUPPLIER"), "parts", red("PART"),
			adl.Dot(x, "pid"), adl.Dot(y, "pid"), "pid"},
		{"wider element", scan("DELIVERY"), "supply", red("PART"),
			adl.Dot(x, "part"), adl.Dot(y, "pid"), "part"},
		{"rest attribute", scan("DELIVERY"), "supply", early,
			adl.Dot(x, "supplier"), adl.Dot(y, "eid"), "supplier"},
		{"computed key", scan("DELIVERY"), "supply", scan("PART"),
			&adl.Arith{Op: adl.Add, L: adl.Dot(x, "quantity"), R: adl.CInt(0)}, adl.Dot(y, "price"), ""},
	}
	for seed := int64(1); seed <= 3; seed++ {
		st := bench.Generate(bench.Config{Suppliers: 60, Parts: 120, Deliveries: 150, Fanout: 4,
			SupplySize: 3, DanglingFrac: 0.3, EmptyFrac: 0.3, Seed: seed})
		ctx := &exec.Ctx{DB: st}
		for _, c := range cases {
			rows := 0
			for _, kind := range []adl.JoinKind{adl.Semi, adl.Anti} {
				fused, unfused, nl := unnestJoins(kind, c.l, c.attr, c.r, c.lkey, c.rkey)
				if got := fused.(*exec.HashJoin).ProbeAttr(); got != c.probeAttr {
					t.Fatalf("%s: the join reads its key off %q, want %q", c.name, got, c.probeAttr)
				}
				name := fmt.Sprintf("seed %d %s %v", seed, c.name, kind)
				got, err := exec.Collect(fused, ctx)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, ref := range []exec.Operator{unfused, nl} {
					want, err := exec.Collect(ref, ctx)
					if err != nil {
						t.Fatalf("%s: %T: %v", name, ref, err)
					}
					if !value.Equal(got, want) {
						t.Errorf("%s: %d rows, %T over UnnestOp %d", name, got.Len(), ref, want.Len())
					}
				}
				rows += got.Len()
			}
			if rows == 0 {
				t.Errorf("seed %d %s: no rows under either kind", seed, c.name)
			}
		}
	}

	// The faults, each in a table L joined with R = {⟨pid=@1⟩, ⟨pid=@2⟩} on
	// x[pid] = y[pid]. A fault the unfused plan meets in μ must fail the fused
	// one with the same text even where no element of the row is emitted: a
	// matched element under the antijoin, an unmatched one under the semijoin.
	elem := func(pairs ...any) value.Value { return value.NewTuple(pairs...) }
	row := func(i int64, parts ...value.Value) value.Value {
		return value.NewTuple("eid", value.OID(100+i), "sname", value.String("s"), "parts", value.NewSet(parts...))
	}
	matched, dangling := elem("pid", value.OID(1)), elem("pid", value.OID(99))
	badName := value.NewTuple("eid", value.OID(200), "sname", value.Int(3), "parts", value.NewSet(matched))
	faults := []struct {
		name     string
		attr     string
		rows     []value.Value
		streamed bool // L under a filter that fails on badName, μ's stream pulling it row by row
	}{
		{"non-tuple row", "parts", []value.Value{row(1, matched), value.Int(7)}, false},
		{"missing attribute", "nope", []value.Value{row(1, matched)}, false},
		{"non-set attribute", "sname", []value.Value{row(1, matched)}, false},
		{"non-tuple element", "parts", []value.Value{row(1, dangling), row(2, matched, value.Int(1))}, false},
		{"layout conflict on a matched element", "parts",
			[]value.Value{row(1, dangling), row(2, elem("pid", value.OID(1), "sname", value.String("x")))}, false},
		{"layout conflict on an unmatched element", "parts",
			[]value.Value{row(1, matched), row(2, elem("pid", value.OID(99), "sname", value.String("x")))}, false},
		{"missing key attribute", "parts", []value.Value{row(1, matched), row(2, elem("qid", value.OID(1)))}, false},
		{"μ fault after a key fault", "parts",
			[]value.Value{row(1, elem("qid", value.OID(1))), row(2, value.Int(1))}, false},
		{"μ fault before a stream fault", "parts", []value.Value{row(1, value.Int(1)), badName}, true},
		{"stream fault before a μ fault", "parts", []value.Value{badName, row(1, value.Int(1))}, true},
	}
	r := value.NewSet(elem("pid", value.OID(1)), elem("pid", value.OID(2)))
	for _, f := range faults {
		db := storage.NewMemDB("L", value.NewSet(f.rows...), "R", r)
		var l exec.Operator = &exec.Scan{Table: "L"}
		if f.streamed {
			l = &exec.Filter{Child: l, Var: "s",
				Pred: exec.NewScalar(adl.CmpE(adl.Lt, adl.Dot(adl.V("s"), "sname"), adl.CStr("z")), "s")}
		}
		for _, kind := range []adl.JoinKind{adl.Semi, adl.Anti} {
			fused, unfused, nl := unnestJoins(kind, l, f.attr, &exec.Scan{Table: "R"},
				adl.SubT(x, "pid"), adl.SubT(y, "pid"))
			name := fmt.Sprintf("%s %v", f.name, kind)
			want := collectErr(t, name, unfused, db)
			if got := collectErr(t, name, fused, db); got != want {
				t.Errorf("%s: the fused join fails with %q, over UnnestOp with %q", name, got, want)
			}
			if got := collectErr(t, name, nl, db); got != want {
				t.Errorf("%s: the nested loop fails with %q, the hash join with %q", name, got, want)
			}
		}
	}
}

// collectErr runs a plan that must fail and returns its error's text.
func collectErr(t *testing.T, name string, op exec.Operator, db eval.DB) string {
	t.Helper()
	got, err := exec.Collect(op, &exec.Ctx{DB: db})
	if err == nil {
		t.Fatalf("%s: %T returns %v, want an error", name, op, got)
	}
	return err.Error()
}
