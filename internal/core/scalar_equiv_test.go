package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/adl"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/value"
)

// interpreted rewrites a plan nobody else holds so that every Scalar is
// evaluated by the reference interpreter: its expression sits under a node
// kind the scalar compiler does not translate (a Let of an unused variable),
// so the whole of it is delegated to eval.Eval. It also reports how many
// scalars it found.
func interpreted(op exec.Operator) (exec.Operator, int) {
	scalars := 0
	viaEval := func(s exec.Scalar) exec.Scalar {
		scalars++
		return exec.NewScalar(adl.LetE("·unused", adl.CBool(true), s.Expr), s.Vars...)
	}
	var walk func(node any)
	walk = func(node any) {
		v := reflect.ValueOf(node)
		if v.Kind() != reflect.Pointer || v.IsNil() || v.Elem().Kind() != reflect.Struct {
			return
		}
		for i := 0; i < v.Elem().NumField(); i++ {
			f := v.Elem().Field(i)
			if !f.CanSet() {
				continue
			}
			switch x := f.Interface().(type) {
			case exec.Scalar:
				f.Set(reflect.ValueOf(viaEval(x)))
			case *exec.Scalar:
				if x != nil {
					s := viaEval(*x)
					f.Set(reflect.ValueOf(&s))
				}
			case exec.Operator:
				walk(x)
			}
		}
	}
	walk(op)
	return op, scalars
}

// inflated reports a thousand times the row counts of the statistics it
// wraps, so that the cost model prices the operators that have a parallel
// form cheaper parallel: the way a test forces them.
type inflated struct{ *storage.DBStats }

func (s inflated) RowCount(extent string) int {
	n := s.DBStats.RowCount(extent)
	if n > 0 {
		n *= 1000
	}
	return n
}

// serialCorpus are the liftCorpus queries whose plans hold no node with a
// parallel form (α over a Scan, or α and σ over the membership HashJoin,
// which the planner keeps serial), so that forcing the parallel operators
// leaves them serial. Every other query's forced plan must be parallel, and
// each of these must stay serial.
var serialCorpus = []int{11, 12, 15, 16}

// TestCompiledScalarsMatchInterpretedPlans runs every corpus query's plan —
// serial and tuple-parallel — as planned and with every scalar
// interpreted: the two must return the same set, so each compiled scalar
// agrees with eval.Eval on every row its operator fed it.
func TestCompiledScalarsMatchInterpretedPlans(t *testing.T) {
	st := liftStore()
	stats := st.Analyze()
	configs := map[string]plan.Config{
		"serial":   {Statistics: stats, Parallelism: 1},
		"parallel": {Statistics: inflated{stats}, Parallelism: 3},
	}
	total := 0
	for qi, text := range liftCorpus {
		src := render(text, []int64{50, 940105, 2}, []string{"red", "supplier-1", "part-3"})
		for name, cfg := range configs {
			q, err := PrepareCfg(src, st.Catalog(), cfg)
			if err != nil {
				t.Fatalf("corpus %d (%s): %v", qi, name, err)
			}
			twin, err := PrepareCfg(src, st.Catalog(), cfg)
			if err != nil {
				t.Fatalf("corpus %d (%s): %v", qi, name, err)
			}
			x := plan.Explain(q.Plan)
			if par, serial := strings.Contains(x, "-- parallel"), slices.Contains(serialCorpus, qi); name == "parallel" && par == serial {
				t.Fatalf("corpus %d: the forced plan is parallel=%v, want %v:\n%s", qi, par, !serial, x)
			}
			ref, n := interpreted(twin.Plan)
			total += n
			got, gotErr := exec.Collect(q.Plan, &exec.Ctx{DB: st})
			want, wantErr := exec.Collect(ref, &exec.Ctx{DB: st})
			switch {
			case gotErr != nil || wantErr != nil:
				// A dangling reference fails the query either way, on the
				// same row: a parallel run returns the serial run's error.
				if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
					t.Errorf("corpus %d (%s): compiled scalars fail with %v, interpreted with %v", qi, name, gotErr, wantErr)
				}
			case !value.Equal(got, want):
				t.Errorf("corpus %d (%s): compiled scalars return %d rows, interpreted %d\n%s",
					qi, name, got.Len(), want.Len(), q.Explain())
			}
		}
	}
	if total < 2*len(liftCorpus) {
		t.Errorf("found %d scalars in %d plans; the walk is missing them", total, 3*len(liftCorpus))
	}
}
