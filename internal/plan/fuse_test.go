package plan

import (
	"strings"
	"testing"

	"repro/internal/adl"
	"repro/internal/bench"
	"repro/internal/eval"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/value"
)

// TestFuseSelectIntoNestJoin: the planner compiles α[s: body] over a
// nestjoin into the join's select row exactly when body reads s only as s.a
// and no binder in it shadows s or the group attribute, on every join it may
// pick for the nestjoin (membership, equi-key hash, nested loop, index). The
// fused plan keeps α's estimate and returns what the reference interpreter
// returns; every other shape keeps its Map.
func TestFuseSelectIntoNestJoin(t *testing.T) {
	st := bench.Generate(bench.Config{Suppliers: 30, Parts: 60, Deliveries: 80, Fanout: 3,
		EmptyFrac: 0.1, DanglingFrac: 0.1, Seed: 7})
	if err := st.CreateIndex("DELIVERY", "supplier", storage.HashIndex); err != nil {
		t.Fatal(err)
	}
	stats := st.Analyze()
	s, p, d, ys := adl.V("s"), adl.V("p"), adl.V("d"), adl.V("ys")
	members := adl.NestJoinF(adl.T("SUPPLIER"), "s", "p",
		adl.CmpE(adl.In, adl.SubT(p, "pid"), adl.Dot(s, "parts")), adl.Dot(p, "pname"), "ys", adl.T("PART"))
	deliveries := adl.NestJoinF(adl.T("SUPPLIER"), "s", "d",
		adl.EqE(adl.Dot(s, "eid"), adl.Dot(d, "supplier")), adl.Dot(d, "date"), "ys", adl.T("DELIVERY"))
	thetaJoin := &adl.Join{Kind: adl.NestJ, L: adl.T("SUPPLIER"), R: adl.T("PART"), LVar: "s", RVar: "p",
		On: adl.CmpE(adl.Lt, adl.Dot(p, "price"), adl.CInt(3)), As: "ys", RFun: adl.Dot(p, "pname")}
	row := adl.Tup("n", adl.Dot(s, "sname"), "g", adl.Dot(s, "ys"), "k", adl.AggE(adl.Count, adl.Dot(s, "ys")))
	cases := []struct {
		name  string
		e     adl.Expr
		fuses string // the join line's select row, "" if α stays a Map
	}{
		{"membership", adl.MapE("s", row, members), "⇒ (n = s.sname, g = ys, k = count(ys))"},
		{"equi-key", adl.MapE("s", row, deliveries), "⇒ (n = s.sname, g = ys, k = count(ys))"},
		{"theta", adl.MapE("s", row, thetaJoin), "⇒ (n = s.sname, g = ys, k = count(ys))"},
		{"value", adl.MapE("s", adl.AggE(adl.Count, adl.Dot(s, "ys")), members), "⇒ count(ys)"},
		{"no group read", adl.MapE("s", adl.Dot(s, "sname"), members), "⇒ s.sname"},
		{"s whole", adl.MapE("s", adl.Tup("o", s, "g", adl.Dot(s, "ys")), members), ""},
		{"s shadowed", adl.MapE("s", adl.AggE(adl.Count,
			adl.Sel("s", adl.CBool(true), adl.Dot(s, "ys"))), members), ""},
		{"group shadowed", adl.MapE("s", adl.AggE(adl.Count,
			adl.Sel("ys", adl.CBool(true), adl.Dot(s, "ys"))), members), ""},
		{"outer group name", adl.LetE("ys", adl.CInt(1),
			adl.MapE("s", adl.Tup("g", adl.Dot(s, "ys"), "o", ys), members)), ""},
		{"variable is the group", adl.MapE("ys", adl.Dot(ys, "sname"), members), ""},
		{"over a semijoin", adl.MapE("s", adl.Dot(s, "sname"), adl.SemiJoin(adl.T("SUPPLIER"), "s", "p",
			adl.CmpE(adl.In, adl.SubT(p, "pid"), adl.Dot(s, "parts")), adl.T("PART"))), ""},
		{"over a scan", adl.MapE("s", adl.Tup("n", adl.Dot(s, "sname")), adl.T("SUPPLIER")), ""},
	}
	joins := map[string]bool{}
	for _, c := range cases {
		for _, cfg := range []Config{{Statistics: stats, Parallelism: 1}, {Statistics: stats, Parallelism: 3}, {}} {
			pl := cfg.Plan(c.e)
			x := pl.Explain()
			first := strings.SplitN(x, "\n", 2)[0]
			if c.fuses == "" {
				if strings.Contains(x, "⇒") || !strings.Contains(x, "Map[") {
					t.Errorf("%s: want α kept as a Map, got\n%s", c.name, x)
				}
			} else if !strings.Contains(first, c.fuses) || strings.Contains(x, "Map[") {
				t.Errorf("%s: want the join line to carry %q, got\n%s", c.name, c.fuses, x)
			}
			if c.fuses != "" {
				joins[strings.SplitN(first, "[", 2)[0]] = true
				// α's estimate: what the same α gets kept as a Map.
				kept := cfg.Plan(adl.MapE("s", adl.Tup("o", s, "g", adl.Dot(s, "ys")), c.e.(*adl.Map).Src))
				fe, _ := pl.Estimate(pl.Root)
				ke, _ := kept.Estimate(kept.Root)
				if fe.Rows != ke.Rows || fe.Cost != ke.Cost {
					t.Errorf("%s: fused estimate %+v, α's %+v", c.name, fe, ke)
				}
			}
			got, err := exec.Collect(pl.Root, &exec.Ctx{DB: st})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			want, err := eval.EvalSet(c.e, nil, st)
			if err != nil {
				t.Fatalf("%s: reference: %v", c.name, err)
			}
			if !value.Equal(got, want) {
				t.Errorf("%s: plan returns %d rows, the reference %d\n%s", c.name, got.Len(), want.Len(), x)
			}
		}
	}
	for _, j := range []string{"HashJoin", "NLJoin", "IndexNLJoin"} {
		if !joins[j] {
			t.Errorf("no case fused α into the %s nestjoin: %v", j, joins)
		}
	}
}
