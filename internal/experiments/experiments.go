// Package experiments checks the paper's claims by running them. The suite
// B1–B9, B11, B13 and B14 (Suite, behind cmd/adlbench) pits the naive
// nested-loop execution against the set-oriented plans the rewriter enables
// and the physical strategies the planner chooses between; artifacts.go
// regenerates the paper's tables, figures and example queries.
//
// An experiment is a list of cases. A case is one store, the arms that
// compute one result on it, and a check of the claim they illustrate. One
// runner does the same for every case: warm the extents, time every arm and
// count its allocations and store I/O, verify its result against the first
// arm's, render a table row, and call the check. Absolute times are
// machine-dependent; a check asserts only the orderings a claim names —
// wall-clock comparison between commits is benchmark/'s job.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/adl"
	"repro/internal/bench"
	"repro/internal/eval"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/value"
)

// Arm is one way to compute a case's result. Exactly one of Expr, Cfg and Op
// is set.
type Arm struct {
	Label string
	// Expr is evaluated tuple at a time by the reference interpreter.
	Expr adl.Expr
	// Cfg plans the case's Query, from the case's statistics under Analyze.
	Cfg *plan.Config
	// Op is a hand-built physical plan.
	Op exec.Operator
	// Lossy marks an arm expected to differ from the reference — a buggy
	// plan, or another result shape. Its result is not compared; its row
	// reports how many tuples fewer it returns.
	Lossy bool
}

// Case is one store, the arms computing one result on it, and the check of
// the claim they illustrate.
type Case struct {
	Name  string
	DB    eval.DB
	Query adl.Expr
	Arms  []Arm
	// Analyze collects the store's statistics before the arms run, timed on
	// a row of its own, and plans every Cfg arm from them.
	Analyze bool
	// Runs is the number of timed runs per arm (0 means one); the best time
	// and the fewest allocations are reported, so one GC pause or one-off
	// cache build does not decide an ordering a check asserts.
	Runs int
	// Check asserts the claim on the results, given in arm order.
	Check func(rs []Result) error
}

// Skipped is what a Check returns for a claim this run cannot check, at this
// scale or on this host: the case passes, and the table says why in a note,
// so a gate that did not run is never mistaken for one that passed.
type Skipped string

func (s Skipped) Error() string { return string(s) }

// Result is the measurement of one arm.
type Result struct {
	Arm
	Plan   *plan.Plan // nil for an Expr arm
	Set    *value.Set
	Time   time.Duration
	Allocs uint64
	IO     storage.Stats // of the last run: the meters are deterministic
}

// Experiment is one table of the suite.
type Experiment struct {
	ID, Title string
	// Cases lists the experiment's cases at full or smoke (quick) scale. A
	// case is built only when it runs, so one store is alive at a time.
	Cases func(quick bool) []func() Case
	Notes []string
}

// Only returns c with just the arms of the given labels, in c's order.
func (c Case) Only(labels ...string) Case {
	c.Arms = slices.DeleteFunc(slices.Clone(c.Arms), func(a Arm) bool { return !slices.Contains(labels, a.Label) })
	return c
}

// Exec plans arm a on the case and returns its plan (nil for an Expr arm)
// and a function executing one run. A plan is compiled once, as the serving
// path caches it, so planned arms time execution only.
func (c Case) Exec(a Arm) (*plan.Plan, func() (*value.Set, error)) {
	if a.Expr != nil {
		return nil, func() (*value.Set, error) { return eval.EvalSet(a.Expr, nil, c.DB) }
	}
	pl := &plan.Plan{Root: a.Op}
	if a.Cfg != nil {
		cfg := *a.Cfg
		if c.Analyze {
			cfg.Statistics = c.DB.(*storage.Store).Analyze() // memoized by the store
		}
		pl = cfg.Plan(c.Query)
	}
	ctx := &exec.Ctx{DB: c.DB}
	return pl, func() (*value.Set, error) { return exec.Collect(pl.Root, ctx) }
}

// shape names the plan's root operator and the optimizer's note on it.
func (r Result) shape() string {
	if r.Plan == nil {
		return "eval"
	}
	s := strings.TrimPrefix(fmt.Sprintf("%T", r.Plan.Root), "*exec.")
	if est, ok := r.Plan.Estimate(r.Plan.Root); ok && est.Note != "" {
		s += " (" + est.Note + ")"
	}
	return s
}

// cost is the optimizer's estimated cost of the whole plan, if annotated.
func (r Result) cost() (float64, bool) {
	if r.Plan == nil {
		return 0, false
	}
	est, ok := r.Plan.Estimate(r.Plan.Root)
	return est.Cost, ok
}

// find returns the result of the labelled arm.
func find(rs []Result, label string) Result {
	for _, r := range rs {
		if r.Label == label {
			return r
		}
	}
	panic("experiments: no arm " + label)
}

var cols = []string{"case", "arm", "plan", "time", "speedup", "allocs/run", "rows", "lost",
	"page reads", "index probes", "object reads", "est. cost"}

// Run executes every case of e and renders its table. explain, when not
// nil, receives each planned arm's Explain before the arm runs.
func (e Experiment) Run(quick bool, explain io.Writer) (*bench.Table, error) {
	t := &bench.Table{Title: e.ID + " — " + e.Title, Cols: slices.Clone(cols), Notes: slices.Clone(e.Notes)}
	for _, build := range e.Cases(quick) {
		c := build()
		rs, err := c.run(t, explain)
		if err == nil && c.Check != nil {
			err = c.Check(rs)
		}
		if skip := Skipped(""); errors.As(err, &skip) {
			t.Notes, err = append(t.Notes, string(skip)), nil
		}
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", e.ID, c.Name, err)
		}
	}
	dropEmptyCols(t)
	return t, nil
}

// run measures every arm of c, adding one table row per arm.
func (c Case) run(t *bench.Table, explain io.Writer) ([]Result, error) {
	st, _ := c.DB.(*storage.Store)
	if st != nil {
		for _, ext := range st.Catalog().Extents() {
			if _, err := st.Table(ext); err != nil {
				return nil, err
			}
		}
		if c.Analyze {
			d, _, _ := measure(func() error { st.Analyze(); return nil })
			t.AddRow(c.Name, "ANALYZE (one-off)", "-", ms(d), "-", "-", "-", "-", "-", "-", "-", "-")
		}
	}
	var rs []Result
	for _, a := range c.Arms {
		r := Result{Arm: a}
		pl, run := c.Exec(a)
		r.Plan = pl
		if explain != nil && pl != nil {
			fmt.Fprintf(explain, "-- %s: %s\n%s\n", c.Name, a.Label, pl.Explain())
		}
		for i := 0; i < max(c.Runs, 1); i++ {
			if st != nil {
				st.ResetStats()
			}
			d, allocs, err := measure(func() (err error) { r.Set, err = run(); return err })
			if err != nil {
				return nil, fmt.Errorf("%s: %w", a.Label, err)
			}
			if i == 0 || d < r.Time {
				r.Time = d
			}
			if i == 0 || allocs < r.Allocs {
				r.Allocs = allocs
			}
		}
		if st != nil {
			r.IO = st.Stats()
		}
		lost := "-"
		if len(rs) > 0 && a.Lossy {
			lost = fmt.Sprint(rs[0].Set.Len() - r.Set.Len())
		} else if len(rs) > 0 && !value.Equal(r.Set, rs[0].Set) {
			return nil, fmt.Errorf("%s diverges from %s (%d rows vs %d)", a.Label, rs[0].Label, r.Set.Len(), rs[0].Set.Len())
		}
		rs = append(rs, r)
		cost := "-"
		if v, ok := r.cost(); ok {
			cost = fmt.Sprintf("%.0f", v)
		}
		t.AddRow(c.Name, a.Label, r.shape(), ms(r.Time), speedup(rs[0].Time, r.Time), kilo(r.Allocs),
			r.Set.Len(), lost, meter(r.IO.PageReads), meter(r.IO.IndexProbes), meter(r.IO.ObjectReads), cost)
	}
	return rs, nil
}

// measure runs f once, returning its wall time and the heap allocations
// (runtime.MemStats.Mallocs) made meanwhile; arms run one at a time, so
// they are the arm's own.
func measure(f func() error) (time.Duration, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := f()
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return d, after.Mallocs - before.Mallocs, err
}

// dropEmptyCols removes the columns no row of t has a value in.
func dropEmptyCols(t *bench.Table) {
	for i := len(t.Cols) - 1; i >= 0; i-- {
		if slices.ContainsFunc(t.Rows, func(row []string) bool { return row[i] != "-" }) {
			continue
		}
		t.Cols = slices.Delete(t.Cols, i, i+1)
		for j := range t.Rows {
			t.Rows[j] = slices.Delete(t.Rows[j], i, i+1)
		}
	}
}

// ms formats a duration in milliseconds.
func ms(d time.Duration) string { return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000) }

// speedup formats the ratio of a reference time to an arm's.
func speedup(ref, d time.Duration) string {
	if d <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(ref)/float64(d))
}

// meter formats an I/O count, zero as absent.
func meter(n int) string {
	if n == 0 {
		return "-"
	}
	return fmt.Sprint(n)
}

// kilo formats an allocation count compactly (1234 → "1.2k").
func kilo(n uint64) string {
	switch {
	case n >= 10_000_000:
		return fmt.Sprintf("%.0fM", float64(n)/1e6)
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.0fk", float64(n)/1e3)
	case n >= 1_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	}
	return fmt.Sprint(n)
}
