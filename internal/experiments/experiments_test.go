package experiments

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/value"
)

// TestExperiments runs every experiment of the suite at smoke scale through
// the runner. A nil error already is the claim: every arm agreed with its
// case's reference and every check held. The extra inputs pin what a table
// or its plans must show beyond that.
func TestExperiments(t *testing.T) {
	shows := map[string][]string{
		"B1":  {"semijoin(NL)", "optimized", "∈ .parts]", "ColumnScan("},
		"B3":  {"join+nest", "outerjoin", "lost"},
		"B4":  {"unnest-join-nest", "PNHL budget unlimited (1 segments)", "VecPNHL budget 16 (13 segments)"},
		"B5":  {"assembly", "object reads"},
		"B7":  {"relational-join", "attribute-unnest", "nestjoin"},
		"B9":  {"inner_asym", "group_small", "group_big", "hash-swap", "build side swapped"},
		"B11": {"IndexNLJoin", "index probes", "page reads", "optimizer, NoIndexes"},
		"B13": {"ColumnScan(DELIVERY", "HashJoin[⋉", "typed kernels"},
	}
	ids := map[string]bool{}
	for _, e := range Suite {
		ids[e.ID] = true
		t.Run(e.ID, func(t *testing.T) {
			var plans strings.Builder
			tab, err := e.Run(true, &plans)
			if err != nil {
				t.Fatal(err)
			}
			out := tab.String() + plans.String()
			for _, want := range shows[e.ID] {
				if !strings.Contains(out, want) {
					t.Errorf("%s does not show %q:\n%s", e.ID, want, out)
				}
			}
		})
	}
	for _, id := range []string{"B1", "B2", "B3", "B4", "B5", "B6", "B7", "B9", "B11", "B13"} {
		if !ids[id] {
			t.Errorf("the suite has no %s", id)
		}
	}
}

// TestCheckFailsTheRun: an arm that diverges from the reference, or a check
// that does not hold, fails the experiment rather than printing a table.
func TestCheckFailsTheRun(t *testing.T) {
	diverging := EQ5(20, 40)
	diverging.Arms = append(diverging.Arms, Arm{Label: "wrong", Expr: EQ4(20, 40).Arms[0].Expr})
	failing := EQ5(20, 40)
	failing.Check = func(rs []Result) error { return errors.New("claim does not hold") }
	for name, c := range map[string]Case{"diverging arm": diverging, "failing check": failing} {
		e := Experiment{ID: "X", Cases: func(bool) []func() Case { return cases(func() Case { return c }) }}
		if _, err := e.Run(true, nil); err == nil {
			t.Errorf("%s: the run passed", name)
		}
	}
}

// runOne runs the single case c through the runner, its check included, and
// returns its results and its table followed by every planned arm's Explain.
func runOne(t *testing.T, c Case) ([]Result, string) {
	t.Helper()
	tab := &bench.Table{Cols: slices.Clone(cols)}
	var plans strings.Builder
	rs, err := c.run(tab, &plans)
	if err == nil && c.Check != nil {
		err = c.Check(rs)
	}
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	return rs, tab.String() + plans.String()
}

// smokeAll returns the smoke-scale case builders of the suite's experiment id.
func smokeAll(t *testing.T, id string) []func() Case {
	t.Helper()
	for _, e := range Suite {
		if e.ID == id {
			return e.Cases(true)
		}
	}
	t.Fatalf("the suite has no %s", id)
	return nil
}

// smoke builds the first smoke-scale case of the suite's experiment id.
func smoke(t *testing.T, id string) Case {
	t.Helper()
	return smokeAll(t, id)[0]()
}

// contains fails t for every string of want that out lacks.
func contains(t *testing.T, out string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("output lacks %q:\n%s", w, out)
		}
	}
}

// sameSize fails t unless every non-lossy arm returned as many rows as the
// reference arm.
func sameSize(t *testing.T, rs []Result) {
	t.Helper()
	for _, r := range rs[1:] {
		if !r.Lossy && r.Set.Len() != rs[0].Set.Len() {
			t.Errorf("%s: %d rows, %s has %d", r.Label, r.Set.Len(), rs[0].Label, rs[0].Set.Len())
		}
	}
}

func TestB1(t *testing.T) {
	c := smoke(t, "B1")
	rs, out := runOne(t, c)
	if len(rs) != 3 {
		t.Fatalf("arms = %d, want nested-loop, optimized and semijoin(NL)", len(rs))
	}
	contains(t, out, "semijoin", "nested-loop", "optimized")
}

func TestWorkloadArmsAgree(t *testing.T) {
	rs, _ := runOne(t, EQ5(15, 20))
	if len(rs) != 2 {
		t.Fatalf("arms = %d, want 2", len(rs))
	}
	sameSize(t, rs)
}

func TestB2(t *testing.T) {
	rs, _ := runOne(t, EQ4(20, 30))
	if len(rs) != 2 {
		t.Fatalf("arms = %d, want 2", len(rs))
	}
	sameSize(t, rs)
}

func TestB5(t *testing.T) {
	// Object reads equal the delivery count (one deref per reference).
	rs, _ := runOne(t, PointerJoin(50, 50))
	if n := find(rs, "assembly").IO.ObjectReads; n != 50 {
		t.Errorf("object reads = %d, want 50", n)
	}
}

func TestB6(t *testing.T) {
	rs, _ := runOne(t, ForallExchange(20, 20))
	sameSize(t, rs)
}

func TestB7ReportsOptions(t *testing.T) {
	var out strings.Builder
	for _, c := range []Case{EQ5(24, 30), EQ4(24, 30), EQ6(6, 30), Subset(24, 30, 0.1)} {
		_, s := runOne(t, c)
		out.WriteString(s)
	}
	contains(t, out.String(), "relational-join", "attribute-unnest", "nestjoin")
}

func TestB9OptimizerAgreesWithForcedArms(t *testing.T) {
	var out strings.Builder
	for _, build := range smokeAll(t, "B9") {
		_, s := runOne(t, build())
		out.WriteString(s)
	}
	contains(t, out.String(), "inner_asym", "group_small", "group_big", "optimizer")
	// The asymmetric inner join must show a non-default optimizer choice: a
	// swapped build side, which only the statistics reveal.
	contains(t, out.String(), "build side swapped")
}

func TestB3LostTuplesGrowWithEmptyFraction(t *testing.T) {
	for _, f := range []float64{0, 0.5} {
		rs, _ := runOne(t, grouping(Subset(60, 40, f), f))
		lost := rs[0].Set.Len() - find(rs, "join+nest").Set.Len()
		if f == 0 && lost != 0 {
			t.Errorf("no-dangling case lost %d tuples", lost)
		}
		if f > 0 && lost == 0 {
			t.Errorf("50%% empty case lost no tuples — bug not reproduced")
		}
		if n := find(rs, "outerjoin").Set.Len(); n != rs[0].Set.Len() {
			t.Errorf("outerjoin repair returned %d rows, nested loop %d", n, rs[0].Set.Len())
		}
	}
}

func TestGroupedPlanDerivable(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("grouped plan must be derivable for the subset query: %v", r)
		}
	}()
	c := grouping(Subset(20, 15, 0.2), 0.2)
	for _, label := range []string{"join+nest", "outerjoin"} {
		if c.Only(label).Arms[0].Expr == nil {
			t.Errorf("%s arm has no plan", label)
		}
	}
}

func TestB4BudgetsIncreaseSegments(t *testing.T) {
	rs, out := runOne(t, Materialize(100, 60, 4, 0, 10))
	if n := exec.Segments(60, 0); n != 1 {
		t.Errorf("unlimited budget uses %d segments", n)
	}
	if n := exec.Segments(60, 10); n < 2 {
		t.Errorf("tight budget should need multiple segments, uses %d", n)
	}
	contains(t, out, "PNHL budget unlimited (1 segments)", fmt.Sprintf("PNHL budget 10 (%d segments)", exec.Segments(60, 10)))
	// unnest-join-nest loses the empty suppliers: its size is below the
	// nested loop's.
	if n := find(rs, "unnest-join-nest").Set.Len(); n >= rs[0].Set.Len() {
		t.Errorf("unnest-join-nest did not lose dangling suppliers: %d vs %d", n, rs[0].Set.Len())
	}
}

func TestB4VectorizedPNHLAgrees(t *testing.T) {
	// Every PNHL arm has a twin fed by a ColumnScan; the runner diffs each
	// against the nested-loop reference.
	rs, _ := runOne(t, Materialize(100, 60, 4, 0, 10, 3))
	twins := 0
	for _, r := range rs {
		if p, ok := r.Op.(*exec.PNHL); ok {
			if _, batched := p.L.(*exec.ColumnScan); batched {
				twins++
				if !value.Equal(r.Set, rs[0].Set) {
					t.Errorf("%s diverges from the nested loop", r.Label)
				}
			}
		}
	}
	if twins != 3 {
		t.Errorf("batch-fed PNHL arms = %d, want one per budget", twins)
	}
	if exec.Segments(60, 3) == 1 {
		t.Errorf("tight budget should need multiple segments")
	}
}

func TestB11IndexPlanWinsAndAgrees(t *testing.T) {
	// The check fails the run when the optimizer does not choose the
	// index-nested-loop join, or when the index plan is not strictly cheaper
	// in wall time and page reads than both hash joins.
	rs, out := runOne(t, LookupJoin(400, 4000))
	contains(t, out, "IndexNLJoin", "index probes", "page reads")
	if _, ok := find(rs, "optimizer").Plan.Root.(*exec.IndexNLJoin); !ok {
		t.Errorf("optimizer chose %s, want IndexNLJoin", find(rs, "optimizer").shape())
	}
}

func TestB11WithoutIndexesIsInformational(t *testing.T) {
	c := LookupJoin(200, 1000).Only("hash (build DELIVERY)", "optimizer, NoIndexes")
	c.Check = nil
	rs, out := runOne(t, c)
	contains(t, out, "optimizer, NoIndexes")
	if x := find(rs, "optimizer, NoIndexes").Plan.Explain(); strings.Contains(x, "IndexNLJoin") {
		t.Errorf("B11 without indexes must not plan index operators:\n%s", x)
	}
	sameSize(t, rs)
}

func TestB13VectorizedAgreesAtSmokeScale(t *testing.T) {
	// Small scale: the ≥3x gate is full-scale only, so a clean run asserts
	// result equality and the allocation ceiling.
	rs, out := runOne(t, smoke(t, "B13"))
	contains(t, out, "scalar", "vectorized", "allocs/run")
	sameSize(t, rs)
}

func TestB13ExplainShowsBothArms(t *testing.T) {
	_, out := runOne(t, smoke(t, "B13"))
	contains(t, out, "ColumnScan(DELIVERY", "HashJoin[⋉", "typed kernels")
}

func TestExplainPlansCoversEveryExperiment(t *testing.T) {
	for _, e := range Suite {
		var plans strings.Builder
		if _, err := e.Run(true, &plans); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		// B6's arms are both interpreted: it has no plan to explain.
		if e.ID != "B6" && !strings.Contains(plans.String(), "Scan(") {
			t.Errorf("%s explain shows no plan:\n%s", e.ID, plans.String())
		}
		// The annotated experiments carry estimates; B11 shows both arms.
		if e.ID == "B11" {
			contains(t, plans.String(), "optimizer", "optimizer, NoIndexes", "rows≈")
		}
	}
}
