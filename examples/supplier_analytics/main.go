// Supplier analytics — nesting in the select-clause (Example Queries 1
// and 6): build a per-supplier report with the nested set of parts supplied,
// cheap-part counts, and a price ceiling. Queries producing nested results
// go through the nestjoin (§6.1), which groups during the join without
// losing suppliers that supply nothing.
package main

import (
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/value"
)

func main() {
	st := bench.Generate(bench.Config{
		Suppliers: 8, Parts: 12, Fanout: 3, EmptyFrac: 0.25, Seed: 41,
	})

	// Example Query 6 extended: supplier name, the parts supplied (as full
	// objects), how many of them are cheap, and the maximum price — a
	// nested result built by one nestjoin.
	q, err := core.Prepare(`
		select (sname = s.sname,
		        supplied = select p from p in PART where p in s.parts_supplied,
		        cheap = count(select c from c in PART
		                      where c in s.parts_supplied and c.price < 50))
		from s in SUPPLIER`, st.Catalog())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("optimized form:")
	fmt.Println(" ", q.Rewritten().Expr)
	fmt.Println("options used:", q.Rewritten().OptionsUsed)
	fmt.Println()

	res, err := q.Execute(st)
	if err != nil {
		log.Fatal(err)
	}
	// Cross-check against nested-loop semantics.
	ref, err := q.ExecuteNaive(st)
	if err != nil {
		log.Fatal(err)
	}
	if !value.Equal(res, ref) {
		log.Fatal("plans disagree — this must never happen")
	}

	for _, el := range res.Sorted() {
		row := el.(*value.Tuple)
		name := row.MustGet("sname")
		supplied := row.MustGet("supplied").(*value.Set)
		cheap := row.MustGet("cheap")
		fmt.Printf("%s supplies %d parts (%s cheap):\n", name, supplied.Len(), cheap)
		for _, p := range supplied.Sorted() {
			pt := p.(*value.Tuple)
			fmt.Printf("    %-10s %3s  %s\n",
				pt.MustGet("pname"), pt.MustGet("price"), pt.MustGet("color"))
		}
		if supplied.Len() == 0 {
			fmt.Println("    (nothing — preserved by the nestjoin, not dropped)")
		}
	}
}
