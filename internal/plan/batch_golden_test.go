package plan

import (
	"fmt"
	"os"
	"path/filepath"
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

// TestExplainGoldenBatch pins the plans of the analytic query texts as the
// serving engine plans them (collected statistics), serial and with two
// workers, on the store of those workloads: at a tenth of it the two-worker
// plans are the serial ones and no golden would show the partitioned join or
// the exchange. Each σ over an extent shows the cost model's pick among
// Filter, IndexScan and the batch pipeline.
func TestExplainGoldenBatch(t *testing.T) {
	st, exprs := analyticStore(t)
	stats := st.Analyze()
	for i, q := range analyticTexts {
		for _, par := range []int{1, 2} {
			name := fmt.Sprintf("batch_%s_p%d", q[0], par)
			t.Run(name, func(t *testing.T) {
				cfg := Config{Statistics: stats, Parallelism: par}
				checkGolden(t, name, cfg.Plan(exprs[i]).Explain())
			})
		}
	}
}

// TestExplainActualsGolden pins the row tally of every plan node: Explain
// after one committed instrumented run of the analytic texts, serial and
// with two workers. The files were generated at the commit before rows were
// counted where a child is opened and change only with the plan: a node that
// loses its (actual=N) is a failure, not a golden update. Config.Vectorized
// is ignored, so both of its settings read one file.
func TestExplainActualsGolden(t *testing.T) {
	st, exprs := analyticStore(t)
	stats := st.Analyze()
	for i, q := range analyticTexts {
		for _, vec := range []bool{false, true} {
			for _, par := range []int{1, 2} {
				t.Run(fmt.Sprintf("actuals_%s_vec%t_p%d", q[0], vec, par), func(t *testing.T) {
					cfg := Config{Statistics: stats, Vectorized: vec, Parallelism: par}
					p := cfg.Plan(exprs[i])
					root, commit := p.Instrumented()
					if _, err := exec.Collect(root, &exec.Ctx{DB: st}); err != nil {
						t.Fatal(err)
					}
					commit()
					checkGolden(t, fmt.Sprintf("actuals_%s_p%d", q[0], par), p.Explain())
				})
			}
		}
	}
}

// analyticStore generates the store of the analytic.* workloads and rewrites
// the six texts against it.
func analyticStore(t *testing.T) (*storage.Store, []adl.Expr) {
	st := bench.Generate(bench.Config{Suppliers: 4000, Parts: 8000, Deliveries: 20000,
		Fanout: 8, EmptyFrac: 0.05, Seed: 94})
	for attr, kind := range map[string]storage.IndexKind{"color": storage.HashIndex, "price": storage.OrderedIndex} {
		if err := st.CreateIndex("PART", attr, kind); err != nil {
			t.Fatal(err)
		}
	}
	var exprs []adl.Expr
	for _, q := range analyticTexts {
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
