package core

import (
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/plan"
	"repro/internal/value"
)

// TestQueryExecuteConcurrent executes one prepared query from several
// goroutines at once — a plan made without statistics, and one priced on
// statistics, whose σ runs on a ColumnScan. A *Query holds no state of a
// run, so every result equals the one-goroutine run's; under
// -race this fails as soon as a plan node keeps iterator state.
func TestQueryExecuteConcurrent(t *testing.T) {
	st := bench.Generate(bench.Config{Suppliers: 400, Parts: 800, Deliveries: 2000,
		Fanout: 8, EmptyFrac: 0.05, Seed: 94})
	stats := st.Analyze()
	for _, tc := range []struct {
		name, src string
		cfg       plan.Config
	}{
		{"eq5", `select s from s in SUPPLIER
 where exists x in s.parts_supplied : exists p in PART : x = p and p.color = "red"`, plan.Config{}},
		{"delivery-semi", `select s.sname from s in SUPPLIER
 where exists d in DELIVERY : d.supplier = s and d.date < 940105`,
			plan.Config{Statistics: stats}},
	} {
		q, err := PrepareCfg(tc.src, st.Catalog(), tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := q.Execute(st)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					got, err := q.Execute(st)
					if err != nil {
						t.Errorf("%s: %v", tc.name, err)
						return
					}
					if !value.Equal(got, want) {
						t.Errorf("%s: concurrent Execute returned %d rows, serial %d", tc.name, got.Len(), want.Len())
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
