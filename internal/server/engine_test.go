package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

const redParts = `select p.pname from p in PART where p.color = "red"`

func newEngine(t testing.TB, opts Options) *Engine {
	t.Helper()
	st := bench.Generate(bench.Config{Suppliers: 50, Parts: 100, Deliveries: 20, Seed: 94})
	st.Analyze()
	return New(st, opts)
}

func newPart(i int, color string) *value.Tuple {
	return value.NewTuple(
		"pname", value.String(fmt.Sprintf("t-part-%d", i)),
		"price", value.Int(int64(i%50+1)),
		"color", value.String(color),
	)
}

func TestPlanCacheHitMissReplan(t *testing.T) {
	eng := newEngine(t, Options{})

	r1, err := eng.Query(redParts)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if r1.CacheHit {
		t.Fatalf("first execution must be a cache miss")
	}
	r2, err := eng.Query(redParts)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !r2.CacheHit {
		t.Fatalf("second execution must hit the cache")
	}
	// A handful of inserts stays under the drift floor: still a hit.
	for i := 0; i < 4; i++ {
		if _, err := eng.Insert("PART", newPart(i, "red")); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	r3, err := eng.Query(redParts)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !r3.CacheHit {
		t.Fatalf("sub-floor drift must not invalidate the cached plan")
	}
	// The snapshot still sees the new rows — cache staleness is about plan
	// choice, never visibility.
	if r3.Set.Len() <= r1.Set.Len() {
		t.Fatalf("red rows did not grow: %d → %d", r1.Set.Len(), r3.Set.Len())
	}

	// An index creation bumps the stats epoch: next execution re-plans.
	if err := eng.Store().CreateIndex("PART", "color", storage.HashIndex); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	r4, err := eng.Query(redParts)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if r4.CacheHit || !r4.Replanned {
		t.Fatalf("epoch drift must re-plan: hit=%v replanned=%v", r4.CacheHit, r4.Replanned)
	}
	if r4.Set.Len() != r3.Set.Len() {
		t.Fatalf("re-planned query changed its result: %d vs %d rows", r4.Set.Len(), r3.Set.Len())
	}
	m := eng.Metrics()
	if m.CacheHits != 2 || m.CacheMiss != 1 || m.Replans != 1 {
		t.Fatalf("metrics = %+v, want 2 hits / 1 miss / 1 replan", m)
	}
}

func TestNoPlanCache(t *testing.T) {
	eng := newEngine(t, Options{NoPlanCache: true})
	for i := 0; i < 2; i++ {
		r, err := eng.Query(redParts)
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		if r.CacheHit || r.Replanned {
			t.Fatalf("NoPlanCache engine must never report cache activity")
		}
	}
	if m := eng.Metrics(); m.CacheHits != 0 && m.CacheMiss != 0 {
		t.Fatalf("metrics = %+v, want no cache counters", m)
	}
}

// TestQueryVerifiedUnderConcurrentInserts is the reads-under-writes
// differential arm in miniature: while a writer streams inserts, every
// verified query must match a serial re-execution of the untransformed
// nested form against the same pinned snapshot.
func TestQueryVerifiedUnderConcurrentInserts(t *testing.T) {
	eng := newEngine(t, Options{})

	// The writer is bounded: the naive re-execution inside QueryVerified is
	// the paper's quadratic baseline, so letting the extent grow without
	// limit makes each verification slower than the last (pathological
	// under -race on small CI machines).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 150; i++ {
			if _, err := eng.Insert("PART", newPart(i, []string{"red", "green", "blue"}[i%3])); err != nil {
				t.Errorf("Insert: %v", err)
				return
			}
		}
	}()
	queries := []string{
		redParts,
		`select p.pname from p in PART where p.price < 10`,
		`select s from s in SUPPLIER
 where exists x in s.parts_supplied : exists p in PART : x = p and p.color = "red"`,
	}
	for i := 0; i < 24; i++ {
		if _, err := eng.QueryVerified(queries[i%len(queries)]); err != nil {
			t.Fatalf("verified query %d: %v", i, err)
		}
	}
	wg.Wait()
	// And once more against the quiesced store.
	for _, q := range queries {
		if _, err := eng.QueryVerified(q); err != nil {
			t.Fatalf("verified query after writer drained: %v", err)
		}
	}
}

func TestQueryError(t *testing.T) {
	eng := newEngine(t, Options{})
	if _, err := eng.Query(`select x from x in NO_SUCH_EXTENT`); err == nil {
		t.Fatalf("bad query must error")
	}
	if _, err := eng.Insert("NO_SUCH_EXTENT", value.EmptyTuple()); err == nil {
		t.Fatalf("bad insert must error")
	}
}

func TestDeleteUpdateThroughEngine(t *testing.T) {
	eng := newEngine(t, Options{})
	oid, err := eng.Insert("PART", newPart(1, "cyan"))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := eng.Update("PART", oid, newPart(2, "magenta")); err != nil {
		t.Fatalf("Update: %v", err)
	}
	r, err := eng.Query(`select p.pname from p in PART where p.color = "magenta"`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if r.Set.Len() != 1 {
		t.Fatalf("updated row not visible: %d rows", r.Set.Len())
	}
	if err := eng.Delete("PART", oid); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	r, err = eng.Query(`select p.pname from p in PART where p.color = "magenta"`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if r.Set.Len() != 0 {
		t.Fatalf("deleted row still visible: %d rows", r.Set.Len())
	}
	m := eng.Metrics()
	if m.Deletes != 1 || m.Updates != 1 {
		t.Fatalf("metrics deletes/updates = %d/%d, want 1/1", m.Deletes, m.Updates)
	}
}

// TestFeedbackEvictsDriftedPlan is the full runtime-feedback loop: a plan
// cached against pre-delete statistics keeps hitting the cache (deletes do
// not advance the stats epoch), its instrumented execution observes far
// fewer rows than estimated, the entry is evicted, and the re-planned query
// is priced measurably cheaper against fresh statistics.
func TestFeedbackEvictsDriftedPlan(t *testing.T) {
	st := storage.New(schema.SupplierPart())
	var blues []value.OID
	for i := 0; i < 1000; i++ {
		oid, err := st.Insert("PART", newPart(i, "blue"))
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		blues = append(blues, oid)
	}
	for i := 1000; i < 1020; i++ {
		if _, err := st.Insert("PART", newPart(i, "red")); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	st.Analyze()
	eng := New(st, Options{})
	src := `select p.pname from p in PART where p.color = "blue"`

	r1, err := eng.Query(src)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if r1.Set.Len() != 1000 {
		t.Fatalf("pre-delete result = %d rows, want 1000", r1.Set.Len())
	}
	if r1.Evicted {
		t.Fatalf("accurate estimates must not evict")
	}
	ent1, _ := eng.plans.get(src)
	q1 := ent1.q

	// Bulk delete shifts the cardinality 50x without advancing the epoch.
	for _, oid := range blues[:980] {
		if err := eng.Delete("PART", oid); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}

	r2, err := eng.Query(src)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !r2.CacheHit {
		t.Fatalf("deletes alone must not invalidate the cache — that is feedback's job")
	}
	if !r2.Evicted {
		t.Fatalf("execution observing 20 rows against a 1000-row estimate must evict")
	}
	if r2.Set.Len() != 20 {
		t.Fatalf("post-delete result = %d rows, want 20", r2.Set.Len())
	}

	r3, err := eng.Query(src)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if r3.CacheHit {
		t.Fatalf("evicted entry must be re-planned, not re-served")
	}
	if r3.Evicted {
		t.Fatalf("re-planned estimates match the data, nothing to evict")
	}
	ent2, _ := eng.plans.get(src)
	q2 := ent2.q

	e1, ok1 := q1.Planned.Estimate(q1.Plan)
	e2, ok2 := q2.Planned.Estimate(q2.Plan)
	if !ok1 || !ok2 {
		t.Fatalf("plans lack root estimates: %v %v", ok1, ok2)
	}
	if e2.Cost >= e1.Cost/2 {
		t.Fatalf("re-planned cost %.0f not measurably cheaper than drifted %.0f", e2.Cost, e1.Cost)
	}

	m := eng.Metrics()
	if m.FeedbackEvictions != 1 {
		t.Fatalf("FeedbackEvictions = %d, want 1", m.FeedbackEvictions)
	}
}

func TestNoFeedbackOption(t *testing.T) {
	st := storage.New(schema.SupplierPart())
	var oids []value.OID
	for i := 0; i < 500; i++ {
		oid, err := st.Insert("PART", newPart(i, "blue"))
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		oids = append(oids, oid)
	}
	st.Analyze()
	eng := New(st, Options{NoFeedback: true})
	src := `select p.pname from p in PART where p.color = "blue"`
	if _, err := eng.Query(src); err != nil {
		t.Fatalf("Query: %v", err)
	}
	for _, oid := range oids[:490] {
		if err := eng.Delete("PART", oid); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	r, err := eng.Query(src)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if r.Evicted {
		t.Fatalf("NoFeedback must never evict")
	}
	if m := eng.Metrics(); m.FeedbackEvictions != 0 {
		t.Fatalf("FeedbackEvictions = %d with feedback disabled", m.FeedbackEvictions)
	}
}

// cachedPlanHoldsColumnScan fails unless the engine's cached plan of src
// runs σ on a ColumnScan: the cost model picked it.
func cachedPlanHoldsColumnScan(t *testing.T, eng *Engine, src string) {
	t.Helper()
	ent, ok := eng.plans.get(src)
	if !ok {
		t.Fatalf("%q is not cached", src)
	}
	if x := plan.Explain(ent.q.Plan); !strings.Contains(x, "ColumnScan(") {
		t.Fatalf("%q: want a ColumnScan, planned\n%s", src, x)
	}
}

// TestVectorizedEngine: the default engine plans red-parts onto a ColumnScan
// and answers what the nested form answers, and a mutation stays
// visible through it (the columnar projection is snapshot-pinned, not a
// stale cache).
func TestVectorizedEngine(t *testing.T) {
	eng := newEngine(t, Options{})
	rv, err := eng.QueryVerified(redParts)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	cachedPlanHoldsColumnScan(t, eng, redParts)

	if _, err := eng.Insert("PART", newPart(900, "red")); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	rv2, err := eng.QueryVerified(redParts)
	if err != nil {
		t.Fatalf("Query after insert: %v", err)
	}
	if rv2.Set.Len() != rv.Set.Len()+1 {
		t.Fatalf("insert not visible: %d → %d rows", rv.Set.Len(), rv2.Set.Len())
	}
}

// TestEngineConcurrentVectorizedInstrumented runs cached plans whose σ the
// cost model put on a ColumnScan from many goroutines with feedback on:
// every execution instruments and runs the one cached tree, no copy made.
// Under -race this fails when a node keeps anything of a run.
func TestEngineConcurrentVectorizedInstrumented(t *testing.T) {
	eng := newEngine(t, Options{})
	queries := []string{
		redParts,
		`select p.pname from p in PART where p.price < 10`,
		`select s from s in SUPPLIER
 where exists x in s.parts_supplied : exists p in PART : x = p and p.color = "red"`,
	}
	want := make([]*value.Set, len(queries))
	for i, q := range queries {
		r, err := eng.QueryVerified(q) // cache the plan
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		want[i] = r.Set
	}
	cachedPlanHoldsColumnScan(t, eng, redParts)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i, q := range queries {
					r, err := eng.Query(q)
					if err != nil {
						t.Errorf("Query: %v", err)
						return
					}
					if !value.Equal(r.Set, want[i]) {
						t.Errorf("%q: diverges from the nested form under concurrency: %d rows, want %d",
							q, r.Set.Len(), want[i].Len())
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentPrintSharedExtent prints one materialized store extent — a
// set every reader of the version shares — from several goroutines. Under
// -race it shows printing fills no cache on the shared Set or its tuples.
func TestConcurrentPrintSharedExtent(t *testing.T) {
	sn := newEngine(t, Options{}).Store().Snapshot()
	defer sn.Release()
	extent, err := sn.Table("SUPPLIER")
	if err != nil {
		t.Fatal(err)
	}
	texts := make([]string, 4)
	var wg sync.WaitGroup
	for g := range texts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			texts[g] = extent.String()
		}()
	}
	wg.Wait()
	for _, s := range texts[1:] {
		if s != texts[0] || len(s) < extent.Len() {
			t.Fatalf("concurrent prints of one extent differ")
		}
	}
}

// TestTupleShapesSettle: a query mints its layouts — here a novel result
// attribute list, a joined row and a key — the first time it runs and none
// afterwards, however often it is repeated.
func TestTupleShapesSettle(t *testing.T) {
	eng := newEngine(t, Options{})
	const src = `select (settled_name = s.sname, settled_parts = count(select p from p in PART where p in s.parts_supplied))
 from s in SUPPLIER`
	if _, err := eng.Query(src); err != nil {
		t.Fatal(err)
	}
	after := eng.Metrics().TupleShapes
	if after < 2 {
		t.Fatalf("tuple_shapes = %d after a query", after)
	}
	for i := 0; i < 1000; i++ {
		if _, err := eng.Query(src); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.Metrics().TupleShapes; got != after {
		t.Errorf("tuple_shapes went from %d to %d over 1000 repetitions of one query", after, got)
	}
}
