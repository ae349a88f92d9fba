// Referential integrity audit — the paper's Example Query 4: find suppliers
// holding references to parts that do not exist. The nested form needs a
// scan of PART per element of every supplier's parts set; the optimizer's
// attribute-unnest option (μ) plus Rule 1 turns it into a single hash
// antijoin, which the cost-based planner runs with μ expanded inside its
// probe: no unnested row is built for a reference that resolves. Both plans
// are run and timed, and their results compared.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/value"
)

func main() {
	// A database where 2% of suppliers violate referential integrity.
	st := bench.Generate(bench.Config{
		Suppliers: 2000, Parts: 4000, Fanout: 8, DanglingFrac: 0.02, Seed: 7,
	})

	q, err := core.PrepareCfg(`
		select s.eid from s in SUPPLIER
		where exists z in s.parts_supplied :
		      not exists p in PART : z = p`, st.Catalog(), plan.Config{Statistics: st.Analyze()})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("nested form:   ", q.ADL())
	fmt.Println("optimized form:", q.Rewritten().Expr)
	fmt.Print("physical plan:  ", plan.Explain(q.Plan))
	fmt.Println()

	start := time.Now()
	naive, err := q.ExecuteNaive(st)
	if err != nil {
		log.Fatal(err)
	}
	naiveT := time.Since(start)

	start = time.Now()
	opt, err := q.Execute(st)
	if err != nil {
		log.Fatal(err)
	}
	optT := time.Since(start)

	if !value.Equal(naive, opt) {
		log.Fatal("plans disagree — this must never happen")
	}
	fmt.Printf("violating suppliers: %d of %d\n", opt.Len(), st.Size("SUPPLIER"))
	fmt.Printf("nested loops: %v\n", naiveT)
	fmt.Printf("μ + antijoin: %v  (%.0fx faster)\n", optT, float64(naiveT)/float64(optT))
}
