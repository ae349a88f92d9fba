package server

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/storage"
)

const cheapParts = `select p.pname from p in PART where p.price < %d`

// TestTemplateHit: a never-seen text of a seen shape is a cache miss — its
// plan is built, from its own literals — that skipped the rewriter, and with
// a seen token fingerprint the parse as well; when its literals leave every
// estimate as the template's plan for other literals had it, it is that plan.
func TestTemplateHit(t *testing.T) {
	eng := newEngine(t, Options{})
	rows := map[int]int{}
	for _, k := range []int{10, 40, 10_000, 20_000} {
		r, err := eng.QueryVerified(fmt.Sprintf(cheapParts, k))
		if err != nil {
			t.Fatal(err)
		}
		if r.CacheHit || r.Replanned {
			t.Fatalf("k=%d: hit=%v replanned=%v on a never-seen text", k, r.CacheHit, r.Replanned)
		}
		rows[k] = r.Set.Len()
	}
	if !(rows[10] < rows[40] && rows[40] < rows[10_000] && rows[10_000] == rows[20_000]) {
		t.Fatalf("rows by literal %v: the template's first literal leaked into later plans", rows)
	}
	// Every price is under 10 000 and 20 000: the two texts estimate alike.
	if m := eng.Metrics(); m.CacheMiss != 4 || m.CacheHits != 0 || m.TemplateHits != 3 || m.FingerprintHits != 3 ||
		m.PlanReuses != 1 || m.FingerprintFallbacks != 0 || m.CacheEntries != 4 {
		t.Fatalf("metrics %+v, want 4 misses, 3 of them template hits by fingerprint, 1 with the template's plan, 4 entries", m)
	}
	// An epoch re-plan of a cached text takes its template too, but no plan
	// priced on the statistics before the index.
	if err := eng.Store().CreateIndex("PART", "price", storage.OrderedIndex); err != nil {
		t.Fatal(err)
	}
	r, err := eng.QueryVerified(fmt.Sprintf(cheapParts, 40))
	if err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); !r.Replanned || m.Replans != 1 || m.TemplateHits != 4 || m.FingerprintHits != 4 || m.PlanReuses != 1 {
		t.Fatalf("replanned=%v, metrics %+v; want a re-plan from the template by fingerprint", r.Replanned, m)
	}
	// A text of a seen fingerprint whose value left in the template (the
	// 30 under the unary minus) differs takes the full path, and its own
	// template; the next text with the first one's value takes the
	// fingerprint again, and the plan: no estimate reads its literal, as the
	// range it bounds has a lower end no histogram can price.
	for i, k := range []int{30, 31, 30} {
		if _, err := eng.QueryVerified(fmt.Sprintf(`select p.pname from p in PART where p.price > -%d and p.price < %d`, k, 100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if m := eng.Metrics(); m.TemplateHits != 5 || m.FingerprintHits != 5 || m.FingerprintFallbacks != 1 || m.PlanReuses != 2 {
		t.Fatalf("metrics %+v, want one fingerprint fallback and one more fingerprint hit, with the plan", m)
	}
	// NoPlanCache means neither level.
	bare := New(eng.Store(), Options{NoPlanCache: true})
	for k := 1; k <= 2; k++ {
		if _, err := bare.Query(fmt.Sprintf(cheapParts, k)); err != nil {
			t.Fatal(err)
		}
	}
	if m := bare.Metrics(); m.TemplateHits != 0 || m.FingerprintHits != 0 || m.PlanReuses != 0 || m.CacheEntries != 0 {
		t.Fatalf("NoPlanCache engine cached: %+v", m)
	}
}

// TestConcurrentTemplateBinding: eight goroutines prepare queries of one
// shape with literals of their own while the shared template, and the plans
// it keeps, are being put and read, each result verified against nested-loop
// evaluation of its own text. Under -race this fails if planning or a plan's
// reuse writes to a template or to a plan another text runs.
func TestConcurrentTemplateBinding(t *testing.T) {
	eng := newEngine(t, Options{})
	shapes := []string{
		cheapParts,
		`select s from s in SUPPLIER
 where exists x in s.parts_supplied : exists p in PART : x = p and p.price = %d`,
		`select (sname = s.sname,
        pnames = select p.pname from p in PART where p in s.parts_supplied and p.price > %d)
 from s in SUPPLIER`,
	}
	const goroutines, rounds = 8, 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for _, shape := range shapes {
					if _, err := eng.QueryVerified(fmt.Sprintf(shape, 1+(g*rounds+round)%60)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	m := eng.Metrics()
	if built := m.CacheMiss - m.TemplateHits; m.CacheMiss < 60 || built < int64(len(shapes)) || built > goroutines*int64(len(shapes)) {
		t.Fatalf("metrics %+v: want every miss but the first of a shape (per racing goroutine) served from a template", m)
	}
	if m.PlanReuses == 0 || eng.tmpl.mostPlans() > core.MaxPlans {
		t.Fatalf("metrics %+v, a template with %d plans: want texts taking the plans of others, at most %d a template",
			m, eng.tmpl.mostPlans(), core.MaxPlans)
	}
}

// TestPlanCacheIsBounded: ten capacities of texts that never repeat leave at
// most one capacity of entries, and a text in use survives the sweep; level 2
// holds the two shapes, each under its lifted key and its one fingerprint,
// and a template at most core.MaxPlans plans, all priced on the statistics
// of the newest.
func TestPlanCacheIsBounded(t *testing.T) {
	eng := newEngine(t, Options{NoFeedback: true})
	if _, err := eng.Query(redParts); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10*planCacheCap; k++ {
		if _, err := eng.Query(fmt.Sprintf(cheapParts, k)); err != nil {
			t.Fatal(err)
		}
		if k%(planCacheCap/2) == 0 {
			if r, err := eng.Query(redParts); err != nil || !r.CacheHit {
				t.Fatalf("after %d other texts the hot one was evicted (err %v)", k, err)
			}
		}
	}
	m := eng.Metrics()
	if m.CacheEntries != planCacheCap {
		t.Fatalf("%d entries after %d distinct texts, want the capacity %d", m.CacheEntries, m.CacheMiss, planCacheCap)
	}
	if got := eng.tmpl.cache.len(); got != 4 {
		t.Fatalf("%d level-2 entries for two shapes, want each under its lifted key and its fingerprint", got)
	}
	// The texts met a hundred estimates; a template keeps the newest few.
	if n := eng.tmpl.mostPlans(); n > core.MaxPlans || m.PlanReuses < 9*planCacheCap {
		t.Fatalf("a template holds %d plans, want at most %d; %d plan reuses", n, core.MaxPlans, m.PlanReuses)
	}
	// Once inserts move the stats epoch, no plan priced before them serves a
	// text, though its estimates be the same: the template keeps only the
	// plan priced after them.
	epoch := eng.Store().StatsEpoch()
	for i := 0; eng.Store().StatsEpoch() == epoch; i++ {
		if _, err := eng.Insert("PART", newPart(i, "teal")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Query(fmt.Sprintf(cheapParts, 20*planCacheCap)); err != nil {
		t.Fatal(err)
	}
	if after := eng.Metrics(); after.PlanReuses != m.PlanReuses || eng.tmpl.mostPlans() != 1 {
		t.Fatalf("after the epoch moved: %d plan reuses, was %d; a template holds %d plans, want 1",
			after.PlanReuses, m.PlanReuses, eng.tmpl.mostPlans())
	}
}

// mostPlans is the most plans a cached template holds.
func (t *templates) mostPlans() int {
	t.cache.mu.Lock()
	defer t.cache.mu.Unlock()
	n := 0
	for _, s := range t.cache.slots {
		n = max(n, s.val.Plans())
	}
	return n
}

func TestClock(t *testing.T) {
	c := newClock[int](3)
	for i, k := range []string{"a", "b", "c"} {
		c.put(k, i)
	}
	c.get("a")
	c.put("d", 3) // takes b's slot: a was used, b not
	c.put("a", 9) // a new value in a's slot
	if _, ok := c.get("b"); ok {
		t.Errorf("b survived")
	}
	for k, want := range map[string]int{"a": 9, "c": 2, "d": 3} {
		if v, ok := c.get(k); !ok || v != want {
			t.Errorf("%s = %d, %v; want %d", k, v, ok, want)
		}
	}
	c.remove("c", 7) // not the cached value
	c.remove("d", 3)
	if _, ok := c.get("d"); ok || c.len() != 2 {
		t.Errorf("after remove: d cached %v, %d entries", ok, c.len())
	}
	// d's slot is still in the ring; re-caching d and filling up must not
	// let the stale slot evict the fresh one.
	c.put("d", 4)
	for i := 0; i < 6; i++ {
		c.get("d")
		c.put(fmt.Sprint("x", i), i)
		if v, ok := c.get("d"); !ok || v != 4 || c.len() > 3 {
			t.Fatalf("round %d: d = %d, %v with %d entries", i, v, ok, c.len())
		}
	}
}

// TestFeedbackKeepsUnrepairablePlan is the ROADMAP P0: eq4's antijoin over
// dangling references is mis-estimated under any statistics, so evicting it
// buys the same plan again, and advancing the epoch for it re-plans every
// other query each time it runs. On a static store it is acknowledged once
// and everything stays cached; when the store has changed since the plan was
// priced, feedback evicts that one entry and advances the epoch once.
func TestFeedbackKeepsUnrepairablePlan(t *testing.T) {
	st := bench.Generate(bench.Config{Suppliers: 400, Parts: 800, Deliveries: 200, DanglingFrac: 0.5, Seed: 94})
	for attr, kind := range map[string]storage.IndexKind{"color": storage.HashIndex, "price": storage.OrderedIndex} {
		if err := st.CreateIndex("PART", attr, kind); err != nil {
			t.Fatal(err)
		}
	}
	st.Analyze()
	eng := New(st, Options{})
	const eq4 = `select s.eid from s in SUPPLIER
 where exists z in s.parts_supplied : not exists p in PART : z = p`
	stable := []string{
		redParts,
		`select p.pname from p in PART where p.price < 10`,
		`select s.sname from s in SUPPLIER`,
	}
	cycle := func(rounds int) {
		t.Helper()
		for i := 0; i < rounds; i++ {
			for _, src := range append([]string{eq4}, stable...) {
				if _, err := eng.Query(src); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cycle(1)
	ent, _ := eng.plans.get(eq4)
	if d, ok := ent.q.Planned.Feedback(0); !ok || ent.ackSeq.Load() == 0 {
		t.Fatalf("eq4 is not mis-estimated on this store (drift %+v, %v): the test tests nothing", d, ok)
	}
	before := eng.Metrics()
	cycle(50)
	m := eng.Metrics()
	if m.Replans != 0 || m.FeedbackEvictions != 0 || m.StatsEpoch != before.StatsEpoch {
		t.Fatalf("static store: %+v; want no replans, no evictions, epoch %d", m, before.StatsEpoch)
	}
	if hits, want := m.CacheHits-before.CacheHits, int64(50*(1+len(stable))); hits != want {
		t.Fatalf("%d hits in 50 cycles, want %d", hits, want)
	}

	// A mutation makes fresh statistics available: one eviction, one epoch.
	if _, err := eng.Insert("PART", newPart(1, "red")); err != nil {
		t.Fatal(err)
	}
	cycle(50)
	m = eng.Metrics()
	if m.FeedbackEvictions != 1 || m.StatsEpoch != before.StatsEpoch+1 || m.Replans != int64(len(stable)) {
		t.Fatalf("after one insert: %+v; want 1 eviction, epoch %d, %d replans", m, before.StatsEpoch+1, len(stable))
	}
}
