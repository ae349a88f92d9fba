package plan

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/rewrite"
	"repro/internal/translate"
)

func TestQError(t *testing.T) {
	cases := []struct {
		est, act int64
		want     float64
	}{
		{100, 100, 1},
		{0, 0, 1},
		{99, 0, 100}, // overestimate: empty result observed
		{0, 99, 100}, // underestimate: symmetric
		{10, 43, 4},  // (43+1)/(10+1)
	}
	for _, c := range cases {
		if got := QError(c.est, c.act); got != c.want {
			t.Errorf("QError(%d, %d) = %v, want %v", c.est, c.act, got, c.want)
		}
	}
}

func TestInstrumentedExecutionFeedback(t *testing.T) {
	st := bench.Generate(bench.Config{Suppliers: 30, Parts: 200, Deliveries: 10, Seed: 7})
	stats := st.Analyze()
	src := `select p.pname from p in PART where p.color = "red"`
	e, _, err := translate.Parse(src, st.Catalog())
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	res := rewrite.Optimize(e, rewrite.NewContext(st.Catalog()))
	p := Config{Statistics: stats, Parallelism: 1}.Plan(res.Expr)

	if _, ok := p.Feedback(1); ok {
		t.Fatalf("feedback before any execution must report nothing")
	}
	if _, ok := p.Actual(p.Root); ok {
		t.Fatalf("actuals before any execution must report nothing")
	}

	// Two instrumented executions: each mirror is a fresh clone with its own
	// tallies; the last committed run is the plan's current observation.
	var rows int
	for i := 0; i < 2; i++ {
		root, commit := p.Instrumented()
		set, err := exec.Collect(root, &exec.Ctx{DB: st})
		if err != nil {
			t.Fatalf("instrumented exec: %v", err)
		}
		rows = set.Len()
		commit()
	}
	if p.Executions() != 2 {
		t.Fatalf("Executions = %d, want 2", p.Executions())
	}
	act, ok := p.Actual(p.Root)
	if !ok {
		t.Fatalf("no actual for the plan root")
	}
	if act != int64(rows) { // part names are unique, so emitted rows == set size
		t.Fatalf("root actual = %d, want the per-run output %d", act, rows)
	}

	// Instrumentation must not change results.
	plain, err := exec.Collect(p.Root, &exec.Ctx{DB: st})
	if err != nil {
		t.Fatalf("plain exec: %v", err)
	}
	if plain.Len() != rows {
		t.Fatalf("instrumented run returned %d rows, plain run %d", rows, plain.Len())
	}

	// On freshly analyzed, unmutated data the estimates hold: no node may
	// drift past the eviction threshold.
	if d, ok := p.Feedback(1); ok && d.Q > DefaultFeedbackThreshold {
		t.Fatalf("estimates drifted on unmutated data: est %d, actual %d, q %.1f",
			d.Est.Rows, d.Actual, d.Q)
	}

	// Explain surfaces observed rows next to the estimates.
	if out := p.Explain(); !strings.Contains(out, "actual=") {
		t.Fatalf("Explain after instrumented executions lacks actuals:\n%s", out)
	}
}
