package plan

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adl"
	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/oosql"
	"repro/internal/rewrite"
	"repro/internal/storage"
	"repro/internal/translate"
)

// analyticTexts are the six query texts of benchmark/spec.go's analytic.*
// workloads (benchmark/ is its own module, so they are repeated here).
var analyticTexts = [][2]string{
	{"eq5_semijoin", `select s from s in SUPPLIER
 where exists x in s.parts_supplied : exists p in PART : x = p and p.color = "red"`},
	{"eq4_antijoin", `select s.eid from s in SUPPLIER
 where exists z in s.parts_supplied : not exists p in PART : z = p`},
	{"eq6_nestjoin", `select (sname = s.sname,
        pnames = select p.pname from p in PART where p in s.parts_supplied and p.color = "red")
 from s in SUPPLIER`},
	{"materialize", `select (sname = s.sname,
        supplied = select p from p in PART where p in s.parts_supplied,
        cheap = count(select c from c in PART where c in s.parts_supplied and c.price < 50))
 from s in SUPPLIER`},
	{"delivery_semi", `select s.sname from s in SUPPLIER
 where exists d in DELIVERY : d.supplier = s and d.date < 940105`},
	{"delivery_join", `select (sname = d.supplier.sname, date = d.date)
 from d in DELIVERY where d.date < 940105`},
}

// pointTexts are the distinct texts of benchmark/spec.go's serve.* cycle,
// planned on its 400/800/200 store with PART.color and PART.price indexed.
var pointTexts = [][2]string{
	{"red_parts", `select p.pname from p in PART where p.color = "red"`},
	{"cheap_parts", `select p.pname from p in PART where p.price < 10`},
	{"all_suppliers", `select s.sname from s in SUPPLIER`},
	{"eq5_semijoin", analyticTexts[0][1]},
}

// missTexts are benchmark/spec.go's four plan.miss templates, planned on its
// unindexed 100/200/50 store with 1001, a literal above every PART.price.
var missTexts = [][2]string{
	{"sel_k", `select p.pname from p in PART where p.price < 1001`},
	{"eq5_k", `select s from s in SUPPLIER
 where exists x in s.parts_supplied : exists p in PART : x = p and p.price = 1001`},
	{"eq6_k", `select (sname = s.sname,
        pnames = select p.pname from p in PART where p in s.parts_supplied and p.price = 1001)
 from s in SUPPLIER`},
	{"nested3_k", `select s.sname from s in SUPPLIER
 where exists d in DELIVERY : d.supplier = s and
       exists y in d.supply : exists p in PART : y.part = p and p.price = 1001`},
}

// TestExplainGoldenBatch pins the plans of the analytic query texts as the
// serving engine plans them (collected statistics) on the store of those
// workloads. Each σ over an extent shows the cost model's pick among Filter,
// IndexScan and ColumnScan, and every ColumnScan line shows its predicate.
// Each text is planned at Parallelism 1 and 2 (subtests _p1 and _p2), and
// both read the one batch_*_p1 golden: the planner ignores Parallelism, so
// the field changes no plan.
func TestExplainGoldenBatch(t *testing.T) {
	st, exprs := analyticStore(t)
	stats := st.Analyze()
	scans := 0
	for i, q := range analyticTexts {
		for _, par := range ignoredParallelism {
			name := fmt.Sprintf("batch_%s_p1", q[0])
			t.Run(fmt.Sprintf("batch_%s_p%d", q[0], par), func(t *testing.T) {
				p := Config{Statistics: stats, Parallelism: par}.Plan(exprs[i])
				checkGolden(t, name, p.Explain())
				scans += goldenShowsPredicates(t, name, p.Root)
			})
		}
	}
	if scans == 0 {
		t.Error("no golden holds a ColumnScan")
	}
}

// goldenShowsPredicates fails unless testdata/name.golden renders every
// ColumnScan of root on a line with its extent and its predicate, and returns
// how many ColumnScans root holds.
func goldenShowsPredicates(t *testing.T, name string, root exec.Operator) (scans int) {
	t.Helper()
	golden, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	var walk func(op exec.Operator)
	walk = func(op exec.Operator) {
		if cs, ok := op.(*exec.ColumnScan); ok {
			preds := make([]string, len(cs.Kernels))
			for i, k := range cs.Kernels {
				preds[i] = fmt.Sprint(k.Pred.Expr)
			}
			line := fmt.Sprintf("ColumnScan(%s | %s: %s |", cs.Extent, cs.Var, strings.Join(preds, " ∧ "))
			if !strings.Contains(string(golden), line) {
				t.Errorf("%s shows no line %q:\n%s", name, line, golden)
			}
			scans++
		}
		_, children := describe(op, nil)
		for _, c := range children {
			walk(c)
		}
	}
	walk(root)
	return scans
}

// TestExplainGoldenRuler pins the plans of the serve.* and plan.miss texts
// as TestExplainGoldenBatch pins the analytic ones, each on its workload's
// store and at both settings of the ignored Parallelism: a change that moves
// one of them shows in the diff of its testdata/ruler_*.golden.
func TestExplainGoldenRuler(t *testing.T) {
	for _, w := range []struct {
		name    string
		store   bench.Config
		indexed bool
		texts   [][2]string
	}{
		{"point", bench.Config{Suppliers: 400, Parts: 800, Deliveries: 200}, true, pointTexts},
		{"miss", bench.Config{Suppliers: 100, Parts: 200, Deliveries: 50}, false, missTexts},
	} {
		st, exprs := textStore(t, w.store, w.indexed, w.texts)
		stats := st.Analyze()
		for i, q := range w.texts {
			for _, par := range ignoredParallelism {
				name := fmt.Sprintf("ruler_%s_%s_p1", w.name, q[0])
				t.Run(fmt.Sprintf("ruler_%s_%s_p%d", w.name, q[0], par), func(t *testing.T) {
					checkGolden(t, name, Config{Statistics: stats, Parallelism: par}.Plan(exprs[i]).Explain())
				})
			}
		}
	}
}

// TestExplainActualsGolden pins the row tally of every plan node: Explain
// after one committed instrumented run of the analytic texts. The files were
// generated at the commit before rows were
// counted where a child is opened and change only with the plan: a node that
// loses its (actual=N) is a failure, not a golden update. Config.Vectorized
// and Config.Parallelism are ignored, so all four of their settings read one
// file.
func TestExplainActualsGolden(t *testing.T) {
	st, exprs := analyticStore(t)
	stats := st.Analyze()
	for i, q := range analyticTexts {
		for _, vec := range []bool{false, true} {
			for _, par := range ignoredParallelism {
				t.Run(fmt.Sprintf("actuals_%s_vec%t_p%d", q[0], vec, par), func(t *testing.T) {
					cfg := Config{Statistics: stats, Vectorized: vec, Parallelism: par}
					p := cfg.Plan(exprs[i])
					root, commit := p.Instrumented()
					if _, err := exec.Collect(root, &exec.Ctx{DB: st}); err != nil {
						t.Fatal(err)
					}
					commit()
					name := fmt.Sprintf("actuals_%s_p1", q[0])
					checkGolden(t, name, p.Explain())
					goldenShowsPredicates(t, name, p.Root)
				})
			}
		}
	}
}

// ignoredParallelism are the settings of the deprecated Config.Parallelism
// that the golden tests plan each text at; every one must give the plan of
// the text's _p1 golden.
var ignoredParallelism = []int{1, 2}

// analyticStore generates the store of the analytic.* workloads and rewrites
// the six texts against it.
func analyticStore(t *testing.T) (*storage.Store, []adl.Expr) {
	return textStore(t, bench.Config{Suppliers: 4000, Parts: 8000, Deliveries: 20000,
		Fanout: 8, EmptyFrac: 0.05, Seed: 94}, true, analyticTexts)
}

// textStore generates a store, indexed on PART.color and PART.price if asked,
// and rewrites texts against it.
func textStore(t *testing.T, cfg bench.Config, indexed bool, texts [][2]string) (*storage.Store, []adl.Expr) {
	st := bench.Generate(cfg)
	for attr, kind := range map[string]storage.IndexKind{"color": storage.HashIndex, "price": storage.OrderedIndex} {
		if !indexed {
			break
		}
		if err := st.CreateIndex("PART", attr, kind); err != nil {
			t.Fatal(err)
		}
	}
	var exprs []adl.Expr
	for _, q := range texts {
		ast, err := oosql.Parse(q[1])
		if err != nil {
			t.Fatal(err)
		}
		e, _, err := translate.Translate(ast, st.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		exprs = append(exprs, rewrite.Optimize(e, rewrite.NewContext(st.Catalog())).Expr)
	}
	return st, exprs
}

// checkGolden compares got with testdata/name.golden, or writes it under
// -update.
func checkGolden(t *testing.T, name, got string) {
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("Explain output changed; run with -update if intended.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
