package rewrite

import (
	"fmt"
	"testing"

	"repro/internal/adl"
)

// optimizeLifted is Optimize the way core.PrepareCached runs it — on the
// lifted template, with the literals bound into the outcome — and fails the
// test unless that is Optimize(e) exactly: the same expression, the same
// rules in the same order producing the same nodes, the same options. Every
// Optimize call of this package's tests goes through it, so every query of
// the rewrite corpus checks the identity the template cache rests on.
func optimizeLifted(t *testing.T, e adl.Expr, ctx *Context) *Result {
	t.Helper()
	want := Optimize(e, ctx)
	tmpl, args, _ := adl.Lift(e, nil)
	got := Optimize(tmpl, ctx)
	if bound := adl.Bind(got.Expr, args); !adl.Equal(bound, want.Expr) {
		t.Fatalf("rewriting the template of %s\n  gives %s\n  want  %s", e, bound, want.Expr)
	}
	if fmt.Sprint(got.OptionsUsed, got.NestedBefore, got.NestedAfter) != fmt.Sprint(want.OptionsUsed, want.NestedBefore, want.NestedAfter) ||
		len(got.Trace) != len(want.Trace) {
		t.Fatalf("template of %s: options %v, %d steps; want %v, %d steps", e, got.OptionsUsed, len(got.Trace), want.OptionsUsed, len(want.Trace))
	}
	for i, s := range got.Trace {
		if w := want.Trace[i]; s.Rule != w.Rule || !adl.Equal(adl.Bind(s.After, args), w.After) {
			t.Fatalf("template of %s, step %d: [%s] %s, want [%s] %s", e, i, s.Rule, s.After, w.Rule, w.After)
		}
	}
	return want
}
