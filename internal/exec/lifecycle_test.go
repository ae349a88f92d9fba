package exec_test

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adl"
	"repro/internal/bench"
	"repro/internal/col"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/value"
)

// lifecycleTexts are the query texts of benchmark/spec.go's analytic.* and
// serve.* cycles (benchmark/ is its own module, so they are repeated here),
// Example Query 4 with a residual over both variables, whose μ the antijoin
// cannot expand inside its probe: the one plain μ of the corpus, a nestjoin
// whose fused select row is a value, not a tuple, and two texts whose
// semi- and antijoins have an empty right operand.
var lifecycleTexts = []string{
	`select s from s in SUPPLIER
 where exists x in s.parts_supplied : exists p in PART : x = p and p.color = "red"`,
	`select s.eid from s in SUPPLIER
 where exists z in s.parts_supplied : not exists p in PART : z = p`,
	`select (sname = s.sname,
        pnames = select p.pname from p in PART where p in s.parts_supplied and p.color = "red")
 from s in SUPPLIER`,
	`select (sname = s.sname,
        supplied = select p from p in PART where p in s.parts_supplied,
        cheap = count(select c from c in PART where c in s.parts_supplied and c.price < 50))
 from s in SUPPLIER`,
	`select s.sname from s in SUPPLIER
 where exists d in DELIVERY : d.supplier = s and d.date < 940105`,
	`select (sname = d.supplier.sname, date = d.date)
 from d in DELIVERY where d.date < 940105`,
	`select p.pname from p in PART where p.color = "red"`,
	`select p.pname from p in PART where p.price < 10`,
	`select s.sname from s in SUPPLIER`,
	`select s.eid from s in SUPPLIER
 where exists z in s.parts_supplied : not exists p in PART : z = p and p.pname < s.sname`,
	`select count(select p.pname from p in PART where p in s.parts_supplied and p.price < 50)
 from s in SUPPLIER`,
	`select s.sname from s in SUPPLIER
 where exists d in DELIVERY : d.supplier = s and
       exists y in d.supply : exists p in PART : y.part = p and p.price = 1001`,
	`select s.eid from s in SUPPLIER
 where exists z in s.parts_supplied : not exists p in PART : z = p and p.price = 1001`,
}

// emptyRightTexts are the lifecycleTexts whose joins meet an empty right
// operand (no part costs 1001): semijoins in a chain, and Example Query 4's
// antijoin, which keeps every unnested row.
var emptyRightTexts = []int{11, 12}

// fusedTexts are the lifecycleTexts whose every plan is a nestjoin that
// builds its select row (exec.HashJoin.Sel): a tuple (Example Query 6, the
// materialize query) or a value.
var fusedTexts = []int{2, 3, 10}

// outTexts are the lifecycleTexts of one attribute of a σ over an extent or
// of an extent: every plan of them that does not run the σ as an IndexScan
// serves α off its scan's column (exec.ColumnScan.Out).
var outTexts = []int{6, 7, 8}

// eq4Text is Example Query 4 in lifecycleTexts: every plan of it expands μ
// inside the antijoin's probe, so none opens μ's stream.
const eq4Text = 1

// lifecycleStore generates a store with the indexes of the benchmark's.
func lifecycleStore(t *testing.T, cfg bench.Config) *storage.Store {
	st := bench.Generate(cfg)
	for attr, kind := range map[string]storage.IndexKind{"color": storage.HashIndex, "price": storage.OrderedIndex} {
		if err := st.CreateIndex("PART", attr, kind); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// arm is one plan of a query and the database it runs on.
type arm struct {
	name string
	root exec.Operator
	db   eval.DB
}

// serialTexts are the lifecycleTexts whose plans hold no node with a
// parallel form (α over a Scan, which becomes a serial ColumnScan after the
// access path is priced), so that forcing the parallel operators
// leaves them serial. Every other text's forced plan must be parallel, and
// each of these must stay serial.
var serialTexts = []int{8}

// textArms plans every text as the serving engine configures the planner
// (serial, and three workers priced on statistics) and with the parallel
// operators forced by statistics a thousand times the store's and no index
// access paths, so that they appear at any scale.
func textArms(t *testing.T, st *storage.Store) [][]arm {
	stats := st.Analyze()
	var out [][]arm
	for i, src := range lifecycleTexts {
		var arms []arm
		for name, cfg := range map[string]plan.Config{
			"p1":        {Statistics: stats, Parallelism: 1},
			"p3":        {Statistics: stats, Parallelism: 3},
			"p3-forced": {Statistics: inflated{stats}, Parallelism: 3, NoIndexes: true},
		} {
			q, err := core.PrepareCfg(src, st.Catalog(), cfg)
			if err != nil {
				t.Fatalf("text %d: %v", i, err)
			}
			x := plan.Explain(q.Plan)
			if fused := strings.Contains(x, " ⇒ "); fused != slices.Contains(fusedTexts, i) {
				t.Fatalf("text %d: the plan fuses α into its nestjoin=%v, want %v:\n%s", i, fused, !fused, x)
			}
			if out, want := strings.Contains(x, " | out "), slices.Contains(outTexts, i) && !strings.Contains(x, "IndexScan"); out != want {
				t.Fatalf("text %d %s: α served off the scan's column=%v, want %v:\n%s", i, name, out, want, x)
			}
			if par, serial := strings.Contains(x, "-- parallel"), slices.Contains(serialTexts, i); name == "p3-forced" && par == serial {
				t.Fatalf("text %d: the forced plan is parallel=%v, want %v:\n%s", i, par, !serial, x)
			}
			arms = append(arms, arm{fmt.Sprintf("text %d %s", i, name), q.Plan, st})
		}
		out = append(out, arms)
	}
	return out
}

// inflated reports a thousand times the row counts of the statistics it
// wraps, so that the cost model prices the operators that have a parallel
// form cheaper parallel.
type inflated struct{ *storage.DBStats }

func (s inflated) RowCount(extent string) int {
	n := s.DBStats.RowCount(extent)
	if n > 0 {
		n *= 1000
	}
	return n
}

// experimentArms are the arms of B1, B8/B9's grouping join and B13/B14 at
// smoke scale, with three workers so that parallel operators appear at any
// scale, and with 2 100 deliveries so that B13/B14's ColumnScans span three
// batches.
func experimentArms() [][]arm {
	var out [][]arm
	for _, c := range []experiments.Case{experiments.EQ5(40, 80),
		experiments.StrategyJoin("group", adl.NestJ, 60, 600), experiments.VecJoin(60, 2100, 3)} {
		var arms []arm
		for _, a := range c.Arms {
			root := a.Op
			if a.Cfg != nil {
				cfg := *a.Cfg
				cfg.Parallelism = 3
				if c.Analyze {
					cfg.Statistics = c.DB.(*storage.Store).Analyze()
				}
				root = cfg.Plan(c.Query).Root
			}
			if root != nil {
				arms = append(arms, arm{c.Name + " " + a.Label, root, c.DB})
			}
		}
		out = append(out, arms)
	}
	return out
}

// settle waits for the goroutine count to come back to base.
func settle(t *testing.T, what string, base int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 200 {
			t.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// errInjected is what a faultyDB fails with, errClose what the Tracker fails
// a Close with.
var (
	errInjected = errors.New("injected fault")
	errClose    = errors.New("injected close fault")
)

// faultyDB passes every read through to a store and fails the failAt-th
// (from 1; 0: none) with errInjected. calls counts them.
type faultyDB struct {
	st     *storage.Store
	failAt int64
	calls  atomic.Int64
}

func (f *faultyDB) hit() error {
	if f.calls.Add(1) == f.failAt {
		return errInjected
	}
	return nil
}

func (f *faultyDB) Table(name string) (*value.Set, error) {
	if err := f.hit(); err != nil {
		return nil, err
	}
	return f.st.Table(name)
}

func (f *faultyDB) Deref(oid value.OID) (*value.Tuple, error) {
	if err := f.hit(); err != nil {
		return nil, err
	}
	return f.st.Deref(oid)
}

func (f *faultyDB) ColProj(extent string, attrs []string) (*col.Proj, error) {
	if err := f.hit(); err != nil {
		return nil, err
	}
	return f.st.ColProj(extent, attrs)
}

func (f *faultyDB) IndexLookup(extent, attr string, key value.Value) ([]value.Value, error) {
	if err := f.hit(); err != nil {
		return nil, err
	}
	return f.st.IndexLookup(extent, attr, key)
}

func (f *faultyDB) IndexExists(extent, attr string, key value.Value) (bool, error) {
	if err := f.hit(); err != nil {
		return false, err
	}
	return f.st.IndexExists(extent, attr, key)
}

func (f *faultyDB) IndexRange(extent, attr string, lo, hi value.Value, loIncl, hiIncl bool) ([]value.Value, error) {
	if err := f.hit(); err != nil {
		return nil, err
	}
	return f.st.IndexRange(extent, attr, lo, hi, loIncl, hiIncl)
}

// TestEveryStreamClosedOnce checks, on every plan of the differential corpus,
// what no static rule can: each stream a run opens — wherever, through the
// one place streams are opened — is closed exactly once, and no goroutine
// outlives the run. On success, where additionally the arms of a query agree
// on the result; with a store that fails its n-th read, for every n the clean
// run reached, where they agree on the error; and with the n-th stream Close
// failing, for every n the clean run reached, where that error is what the
// run returns.
func TestEveryStreamClosedOnce(t *testing.T) {
	base := runtime.NumGoroutine()
	tr := exec.NewTracker()
	seen := map[string]bool{}
	check := func(what string) map[string]bool {
		t.Helper()
		kinds, problems := tr.Check()
		for k := range kinds {
			seen[k] = true
		}
		for _, p := range problems {
			t.Errorf("%s: %s", what, p)
		}
		settle(t, what, base)
		return kinds
	}

	clean := append(textArms(t, lifecycleStore(t, bench.Config{Suppliers: 400, Parts: 800,
		Deliveries: 2000, Fanout: 8, EmptyFrac: 0.05, Seed: 94})), experimentArms()...)
	for i, arms := range clean {
		var want *value.Set
		for _, a := range arms {
			got, err := exec.Collect(a.root, tr.Ctx(a.db))
			if err != nil {
				t.Fatalf("%s: %v", a.name, err)
			}
			if want == nil {
				want = got
			} else if !value.Equal(got, want) {
				t.Errorf("%s returns %d rows, %s %d", a.name, got.Len(), arms[0].name, want.Len())
			}
			if slices.Contains(emptyRightTexts, i) && (got.Len() == 0) != (i == emptyRightTexts[0]) {
				t.Errorf("%s returns %d rows: ⋉ over ∅ keeps none, ▷ over ∅ every one", a.name, got.Len())
			}
			if check(a.name)["*exec.fanned"] && i == eq4Text {
				t.Errorf("%s opens μ's stream:\n%s", a.name, plan.Explain(a.root))
			}
		}
	}
	// Every kind of stream the engine has must have been under watch.
	for _, k := range []string{"*exec.rowBuf", "*exec.mapped", "*exec.fanned"} {
		if !seen[k] {
			t.Errorf("the corpus opened no %s", k)
		}
	}

	small := lifecycleStore(t, bench.Config{Suppliers: 12, Parts: 24, Deliveries: 30,
		Fanout: 3, EmptyFrac: 0.1, Seed: 7})
	faults := 0
	for _, arms := range textArms(t, small) {
		for _, a := range arms {
			db := &faultyDB{st: small}
			if _, err := exec.Collect(a.root, tr.Ctx(db)); err != nil {
				t.Fatalf("%s: %v", a.name, err)
			}
			reached := db.calls.Load()
			faults += int(reached)
			for n := int64(1); n <= reached; n++ {
				_, err := exec.Collect(a.root, tr.Ctx(&faultyDB{st: small, failAt: n}))
				if err == nil || err.Error() != errInjected.Error() {
					t.Errorf("%s, read %d of %d failing: got %v, want %v", a.name, n, reached, err, errInjected)
				}
				check(fmt.Sprintf("%s, read %d of %d failing", a.name, n, reached))
			}
		}
	}
	t.Logf("%d runs with a failing read", faults)

	closeFaults := 0
	for _, arms := range append(textArms(t, small), experimentArms()...) {
		for _, a := range arms {
			tr.FailClose(0, nil)
			if _, err := exec.Collect(a.root, tr.Ctx(a.db)); err != nil {
				t.Fatalf("%s: %v", a.name, err)
			}
			reached := tr.Closes()
			check(a.name)
			closeFaults += int(reached)
			for n := int64(1); n <= reached; n++ {
				tr.FailClose(n, errClose)
				if _, err := exec.Collect(a.root, tr.Ctx(a.db)); !errors.Is(err, errClose) {
					t.Errorf("%s, close %d of %d failing: got %v, want %v", a.name, n, reached, err, errClose)
				}
				check(fmt.Sprintf("%s, close %d of %d failing", a.name, n, reached))
			}
		}
	}
	tr.FailClose(0, nil)
	t.Logf("%d runs with a failing close", closeFaults)
}
