package plan

import (
	"strings"
	"testing"

	"repro/internal/adl"
	"repro/internal/exec"
)

// TestPlannerExpandsUnnestInProbe pins where μ folds into the hash join's
// probe: Example Query 4's antijoin does on the store of the analytic
// workloads, with no Unnest node left, and of the joins over μ with one key
// pair only the residual-free semijoin and antijoin do.
func TestPlannerExpandsUnnestInProbe(t *testing.T) {
	st, exprs := analyticStore(t)
	stats := st.Analyze()
	p := Config{Statistics: stats}.Plan(exprs[1])
	x := p.Explain()
	m, ok := p.Root.(*exec.MapOp)
	if !ok {
		t.Fatalf("Example Query 4 plans\n%s", x)
	}
	if hj, ok := m.Child.(*exec.HashJoin); !ok || hj.Unnest != "parts" || strings.Contains(x, "Unnest[") {
		t.Errorf("want the antijoin expanding μ parts, got\n%s", x)
	}

	s, pv := adl.V("s"), adl.V("p")
	key := adl.EqE(adl.SubT(s, "pid"), adl.SubT(pv, "pid"))
	join := func(kind adl.JoinKind, on adl.Expr) *adl.Join {
		j := adl.JoinE(adl.Mu("parts", adl.T("SUPPLIER")), "s", "p", on, adl.T("PART"))
		j.Kind = kind
		if kind == adl.NestJ {
			j.As = "ps"
		}
		return j
	}
	for _, c := range []struct {
		name  string
		join  *adl.Join
		fused bool
	}{
		{"semijoin", join(adl.Semi, key), true},
		{"antijoin", join(adl.Anti, key), true},
		{"antijoin with a residual",
			join(adl.Anti, adl.AndE(key, adl.CmpE(adl.Lt, adl.Dot(pv, "pname"), adl.Dot(s, "sname")))), false},
		{"semijoin on two keys",
			join(adl.Semi, adl.AndE(key, adl.EqE(adl.Dot(pv, "pname"), adl.Dot(s, "sname")))), false},
		{"inner join", join(adl.Inner, key), false},
		{"nestjoin", join(adl.NestJ, key), false},
		{"outer join", join(adl.Outer, key), false},
	} {
		x := Config{Statistics: stats}.Plan(c.join).Explain()
		if fused := strings.Contains(x, "| μ parts"); fused != c.fused || fused == strings.Contains(x, "Unnest[parts]") {
			t.Errorf("%s: want μ expanded in the probe %t, got\n%s", c.name, c.fused, x)
		}
	}
}
