package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/adl"
	"repro/internal/bench"
	"repro/internal/oosql"
	"repro/internal/plan"
	"repro/internal/rewrite"
	"repro/internal/storage"
	"repro/internal/translate"
	"repro/internal/value"
)

// liftCorpus is the OOSQL corpus of the template tests: the six texts and
// the four templates of benchmark/spec.go, the paper queries and randomized
// stress queries of the plan package's differential tests, and shapes whose
// literals Lift must leave alone. ?i stands for an integer literal (a date
// where the other side is one), ?s for a string literal.
var liftCorpus = []string{
	// benchmark/spec.go: missCycle, analyticCycle, pointCycle.
	`select p.pname from p in PART where p.price < ?i`,
	`select s from s in SUPPLIER
	 where exists x in s.parts_supplied : exists p in PART : x = p and p.price = ?i`,
	`select (sname = s.sname,
	         pnames = select p.pname from p in PART where p in s.parts_supplied and p.price = ?i)
	 from s in SUPPLIER`,
	`select s.sname from s in SUPPLIER
	 where exists d in DELIVERY : d.supplier = s and
	       exists y in d.supply : exists p in PART : y.part = p and p.price = ?i`,
	`select s from s in SUPPLIER
	 where exists x in s.parts_supplied : exists p in PART : x = p and p.color = ?s`,
	`select s.eid from s in SUPPLIER
	 where exists z in s.parts_supplied : not exists p in PART : z = p`,
	`select (sname = s.sname,
	         pnames = select p.pname from p in PART where p in s.parts_supplied and p.color = ?s)
	 from s in SUPPLIER`,
	`select (sname = s.sname,
	         supplied = select p from p in PART where p in s.parts_supplied,
	         cheap = count(select c from c in PART where c in s.parts_supplied and c.price < ?i))
	 from s in SUPPLIER`,
	`select s.sname from s in SUPPLIER
	 where exists d in DELIVERY : d.supplier = s and d.date < ?i`,
	`select (sname = d.supplier.sname, date = d.date)
	 from d in DELIVERY where d.date < ?i`,
	`select p.pname from p in PART where p.color = ?s`,
	`select s.sname from s in SUPPLIER`,
	// internal/plan: TestPipelinePaperQueries and the randomized suites.
	`select (sname = s.sname,
	         pnames = select p.pname from p in s.parts_supplied where p.color = ?s)
	 from s in SUPPLIER`,
	`select d from d in (select e from e in DELIVERY where e.supplier.sname = ?s)
	 where d.date = ?i`,
	`select d from d in DELIVERY
	 where exists x in (select s from s in d.supply where s.part.color = ?s)`,
	`select (sname = s.sname,
	         ps = select p from p in PART where p in s.parts_supplied)
	 from s in SUPPLIER`,
	`select s.sname from s in SUPPLIER
	 where count(Y') = ?i
	 with Y' = select p from p in PART where p in s.parts_supplied`,
	`select s.sname from s in SUPPLIER
	 where s.parts_supplied superset
	       flatten(select t.parts_supplied from t in SUPPLIER where t.sname = ?s)`,
	`select (n = s.sname, k = count(s.parts_supplied)) from s in SUPPLIER
	 where exists p in PART : p in s.parts_supplied and p.price > ?i`,
	// Several literals, on either side, and literals that are not lifted.
	`select p.pname from p in PART where p.price > ?i and ?i > p.price and p.color = ?s`,
	`select p.pname from p in PART where p.color = ?s or p.color = ?s or p.pname = ?s`,
	`select p.pname from p in PART where ?i = ?i and p.price < ?i`,
	`select p.pname from p in PART where true and p.price < ?i`,
	`select p.pname from p in PART where p.price + ?i < ?i`,
	`select p.pname from p in PART where p.price in {?i, ?i, ?i}`,
	`select s.sname from s in SUPPLIER
	 where sum(select p.price from p in PART where p in s.parts_supplied and p.price < ?i) > ?i`,
	`select s.sname from s in SUPPLIER
	 where ?s in (select p.color from p in PART where p in s.parts_supplied)`,
	`select d from d in DELIVERY
	 where exists y in d.supply : y.quantity > ?i and y.part.price < ?i`,
	`select s.sname from s in SUPPLIER
	 where forall x in s.parts_supplied : exists p in PART : x = p and p.price >= ?i`,
	// One shape per rule of a fingerprint's recipe (newRecipe): a literal
	// written twice, in one slot; a value both lifted and next to an
	// aggregate; a negative literal, which is 0 - n and left in place; a value
	// that is a date in one place and an integer in another; 1 beside 1.0;
	// two dates; string escapes (the rounds' strings have more).
	`select p.pname from p in PART where p.price >= ?i and p.price <> ?i and p.price <= ?i or p.price = ?i`,
	`select s.sname from s in SUPPLIER
	 where exists p in PART : p in s.parts_supplied and p.price = ?i and
	       count(select c from c in PART where c in s.parts_supplied and c.price > ?i and c.price < ?i) = ?i`,
	`select p.pname from p in PART where p.price > -?i and p.price < ?i`,
	`select d from d in DELIVERY
	 where d.date >= ?i and exists y in d.supply : y.quantity <> ?i and y.quantity <> ?i and y.quantity <> ?i`,
	`select p.pname from p in PART where p.price > ?i and p.price <> 1 and exists f in {0.5, 2.5} : f > 1.0`,
	`select d.date from d in DELIVERY where d.date >= ?i and d.date < ?i`,
	`select p.pname from p in PART where p.pname = ?s or p.color = ?s or p.color = "r\"e\\d"`,
}

// render fills the placeholders of a corpus text, the n-th ?i with
// ints[n mod len(ints)] and likewise for ?s.
func render(src string, ints []int64, strs []string) string {
	var b strings.Builder
	ni, ns := 0, 0
	for {
		at := strings.IndexByte(src, '?')
		if at < 0 || at+1 == len(src) {
			b.WriteString(src)
			return b.String()
		}
		b.WriteString(src[:at])
		switch src[at+1] {
		case 'i':
			b.WriteString(strconv.FormatInt(ints[ni%len(ints)], 10))
			ni++
		case 's':
			b.WriteByte('"')
			b.WriteString(strings.NewReplacer(`\`, `\\`, `"`, `\"`).Replace(strs[ns%len(strs)]))
			b.WriteByte('"')
			ns++
		}
		src = src[at+2:]
	}
}

var liftStore = sync.OnceValue(func() *storage.Store {
	st := bench.Generate(bench.Config{Suppliers: 60, Parts: 120, Deliveries: 40,
		Fanout: 4, EmptyFrac: 0.1, DanglingFrac: 0.1, Seed: 94})
	st.Analyze()
	return st
})

// mapTemplates is the plainest TemplateCache.
type mapTemplates struct {
	mu sync.Mutex
	m  map[string]*Template
}

func newMapTemplates() *mapTemplates { return &mapTemplates{m: map[string]*Template{}} }

func (c *mapTemplates) Template(key []byte) *Template {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[string(key)]
}

func (c *mapTemplates) Put(key []byte, t *Template) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[string(key)] = t
}

// templates counts the rewritten templates cached, one per lifted key.
func (c *mapTemplates) templates() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k := range c.m {
		if k[0] == liftedKey {
			n++
		}
	}
	return n
}

// plans counts the plans the cached templates hold.
func (c *mapTemplates) plans() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k, t := range c.m {
		if k[0] == liftedKey {
			n += t.Plans()
		}
	}
	return n
}

// checkIdentity fails unless rewriting e's template and binding e's literals
// is rewriting e.
func checkIdentity(t *testing.T, e adl.Expr, ctx *rewrite.Context) {
	t.Helper()
	want := rewrite.Optimize(e, ctx)
	tmpl, args, _ := adl.Lift(e, nil)
	got := rewrite.Optimize(tmpl, ctx)
	if bound := adl.Bind(got.Expr, args); !adl.Equal(bound, want.Expr) {
		t.Fatalf("rewriting the template of %s\n  gives %s\n  want  %s", e, bound, want.Expr)
	}
	if fmt.Sprint(got.OptionsUsed) != fmt.Sprint(want.OptionsUsed) || len(got.Trace) != len(want.Trace) {
		t.Fatalf("template of %s: options %v in %d steps, want %v in %d", e, got.OptionsUsed, len(got.Trace), want.OptionsUsed, len(want.Trace))
	}
}

// replaceLiterals returns e with every Int, String and Date literal v — also
// the ones Lift leaves in place — replaced by f(v).
func replaceLiterals(e adl.Expr, f func(v value.Value) value.Value) adl.Expr {
	return adl.Transform(e, func(x adl.Expr) adl.Expr {
		if c, ok := x.(*adl.Const); ok {
			switch c.Val.Kind() {
			case value.KindInt, value.KindString, value.KindDate:
				return adl.C(f(c.Val))
			}
		}
		return x
	})
}

// TestLiftRewriteIdentity: for every corpus query, written with its usual
// literals and with the literals most likely to matter to a rule — 0,
// negatives, the empty string, all literals equal, random ones — the
// rewriter reaches the same expression by the same number of steps whether
// it sees the literals or their parameters.
func TestLiftRewriteIdentity(t *testing.T) {
	cat := liftStore().Catalog()
	ctx := rewrite.NewContext(cat)
	rng := rand.New(rand.NewSource(94))
	ofKind := func(v value.Value, i int64, s string) value.Value {
		switch v.Kind() {
		case value.KindInt:
			return value.Int(i)
		case value.KindDate:
			return value.Date(int32(i))
		}
		return value.String(s)
	}
	variants := []func(value.Value) value.Value{
		func(v value.Value) value.Value { return v },
		func(v value.Value) value.Value { return ofKind(v, 0, "") },
		func(v value.Value) value.Value { return ofKind(v, -7, "red") },
		func(v value.Value) value.Value { return ofKind(v, 1, "1") },
		func(v value.Value) value.Value {
			return ofKind(v, rng.Int63n(5)-2, []string{"", "red", "blue", "supplier-1"}[rng.Intn(4)])
		},
		func(v value.Value) value.Value { return ofKind(v, rng.Int63(), strconv.Itoa(rng.Int())) },
	}
	for qi, text := range liftCorpus {
		src := render(text, []int64{50, 10, 2}, []string{"red", "supplier-1", "part-3"})
		ast, err := oosql.Parse(src)
		if err != nil {
			t.Fatalf("corpus %d: %v", qi, err)
		}
		e, _, err := translate.Translate(ast, cat)
		if err != nil {
			t.Fatalf("corpus %d: %v", qi, err)
		}
		for _, f := range variants {
			checkIdentity(t, replaceLiterals(e, f), ctx)
		}
	}
}

// TestUnliftedLiteralsKeepTheirRules: the shapes whose rewrite reads a
// literal keep it in the template, take the rule they took before, and do
// not share a template with the query that differs in that literal.
func TestUnliftedLiteralsKeepTheirRules(t *testing.T) {
	st := liftStore()
	countQ := `select s.sname from s in SUPPLIER where count(select p from p in PART where p in s.parts_supplied) = ?i`
	cases := []struct{ a, b, rule string }{
		// count(Y′) = 0 is ¬∃ (Table 2); count(Y′) = 1 is a nestjoin.
		{render(countQ, []int64{0}, nil), render(countQ, []int64{1}, nil), "expand-count-zero"},
		// σ[true] disappears; σ[false] does not.
		{`select p.pname from p in PART where true`, `select p.pname from p in PART where false`, "bool-simplify"},
		{`select p.pname from p in PART where p.price < 9 and true`, `select p.pname from p in PART where p.price < 9 and false`, "bool-simplify"},
	}
	tc := newMapTemplates()
	hits := 0
	for _, c := range cases {
		fired := func(src string) bool {
			q, err := PrepareCached(src, st.Catalog(), plan.Config{}, tc)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			if q.Reuse&FromTemplate != 0 {
				hits++
			}
			checkAgainstNaive(t, q, st)
			for _, s := range q.Rewritten().Trace {
				if s.Rule == c.rule {
					return true
				}
			}
			return false
		}
		if !fired(c.a) {
			t.Errorf("%s: %s did not fire", c.a, c.rule)
		}
		if fired(c.b) && c.rule == "expand-count-zero" {
			t.Errorf("%s: %s fired", c.b, c.rule)
		}
	}
	if hits != 0 || tc.templates() != 2*len(cases) {
		t.Errorf("%d templates, %d hits; want %d distinct templates", tc.templates(), hits, 2*len(cases))
	}
	// 1 = 1 stays a constant comparison, and 1 = 2 is another template.
	for _, src := range []string{
		`select p.pname from p in PART where 1 = 1 and p.price < 30`,
		`select p.pname from p in PART where 1 = 2 and p.price < 30`,
	} {
		q, err := PrepareCached(src, st.Catalog(), plan.Config{}, tc)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstNaive(t, q, st)
		if q.Reuse&FromTemplate != 0 {
			hits++
		}
	}
	if hits != 0 {
		t.Errorf("1 = 1 and 1 = 2 shared a template")
	}
}

// checkAgainstNaive compares the plan's result with nested-loop evaluation.
// The store has dangling references; a query that follows one fails both ways.
func checkAgainstNaive(t *testing.T, q *Query, st *storage.Store) {
	t.Helper()
	got, err := q.Execute(st)
	want, nerr := q.ExecuteNaive(st)
	if err != nil || nerr != nil {
		if err == nil || nerr == nil {
			t.Fatalf("%s: plan: %v, nested loops: %v", q.Source, err, nerr)
		}
		return
	}
	if !value.Equal(got, want) {
		t.Fatalf("%s: plan returned %d rows, nested loops %d", q.Source, got.Len(), want.Len())
	}
}

// checkAgainstPrepare fails unless src prepares through tc as PrepareCfg
// prepares it — the same Explain and the same estimates, or the same error —
// and the plan returns what nested loops return. It returns the query, nil on
// an error.
func checkAgainstPrepare(t *testing.T, src string, st *storage.Store, cfg plan.Config, tc TemplateCache) *Query {
	t.Helper()
	q, err := PrepareCached(src, st.Catalog(), cfg, tc)
	direct, derr := PrepareCfg(src, st.Catalog(), cfg)
	if err != nil || derr != nil {
		if fmt.Sprint(err) != fmt.Sprint(derr) {
			t.Fatalf("%s: prepared with the cache: %v, without: %v", src, err, derr)
		}
		return nil
	}
	if !adl.Equal(q.Rewritten().Expr, direct.Rewritten().Expr) || q.Explain() != direct.Explain() ||
		q.Planned.Explain() != direct.Planned.Explain() {
		t.Fatalf("reuse %04b: prepared with the cache, %s\nexplains as\n%s%s\nwant\n%s%s",
			q.Reuse, src, q.Explain(), q.Planned.Explain(), direct.Explain(), direct.Planned.Explain())
	}
	checkAgainstNaive(t, q, st)
	return q
}

// TestTemplateReuse: the second query of a shape takes the first one's
// rewritten template, whatever its literals, and is planned with its own; a
// text whose fingerprint was seen takes it without a parse. Rounds 0 and 2
// write every corpus text with distinct literals, rounds 1 and 3 with equal
// ones, so the later round of each pair has the earlier one's fingerprints.
func TestTemplateReuse(t *testing.T) {
	st := liftStore()
	tc := newMapTemplates()
	cfg := plan.Config{Statistics: st.Analyze(), Parallelism: 1}
	rounds := []struct {
		ints []int64
		strs []string
	}{
		{[]int64{50, 10, 2}, []string{"red", "supplier-1", "part-3"}},
		{[]int64{0, 0, 0}, []string{"supplier-1"}},
		{[]int64{30, 99, 1}, []string{"part-3", "a\"b\\c\n", "red"}},
		{[]int64{7, 7, 7}, []string{"blue"}},
	}
	// minPlanHits is a floor under the plans the rounds reuse: the equal
	// literals of rounds 1 and 3 give most texts the estimates they had in
	// the round before.
	const minPlanHits = 40
	hits, fpHits, planHits := 0, 0, 0
	for _, r := range rounds {
		for qi, text := range liftCorpus {
			q := checkAgainstPrepare(t, render(text, r.ints, r.strs), st, cfg, tc)
			if q == nil {
				t.Fatalf("corpus %d does not prepare", qi)
			}
			if q.Reuse&FromTemplate != 0 {
				hits++
			}
			if q.Reuse&FromFingerprint != 0 {
				fpHits++
			}
			if q.Reuse&FromPlan != 0 {
				planHits++
			}
		}
	}
	t.Logf("%d template hits, %d of them by fingerprint and %d with the plan, over four rounds of %d queries",
		hits, fpHits, planHits, len(liftCorpus))
	if fpHits < 2*len(liftCorpus) || planHits < minPlanHits {
		t.Errorf("%d template hits, %d of them by fingerprint and %d with the plan, over four rounds of %d queries; want %d by fingerprint and %d with the plan",
			hits, fpHits, planHits, len(liftCorpus), 2*len(liftCorpus), minPlanHits)
	}
}

// TestFingerprintRecipes: one case per rule of newRecipe, per reason a text
// of a cached fingerprint takes the full path, and per reason a text does or
// does not take a plan its template holds. Each case prepares its texts in
// order through one cache; every text prepares as PrepareCfg does.
func TestFingerprintRecipes(t *testing.T) {
	const (
		parsed  = Reuse(0)
		lexed   = FromTemplate | FromFingerprint
		reused  = lexed | FromPlan
		failed  = Reuse(0xff) // the text is an error
		cheap   = `select p.pname from p in PART where `
		deliver = `select d.date from d in DELIVERY where `
	)
	for _, c := range []struct {
		name  string
		texts []string
		want  []Reuse
		shows []string       // if given, what the physical plan of each text shows
		st    *storage.Store // nil: liftStore
		plans int            // if not 0, the plans the template holds after the texts
	}{
		{name: "whitespace and comments drop out",
			texts: []string{cheap + `p.price < 5`, "select p.pname\n from p in PART -- cheap\n where p.price<7"},
			want:  []Reuse{parsed, lexed}},
		{name: "a literal written twice is one slot",
			texts: []string{cheap + `p.price >= 5 and p.price <> 5 and p.price <= 9`, cheap + `p.price >= 7 and p.price <> 7 and p.price <= 12`},
			want:  []Reuse{parsed, lexed}},
		{name: "a value lifted and next to an aggregate has no recipe",
			texts: []string{
				cheap + `p.price = 0 and count(select c from c in PART where c.price < p.price) = 0`,
				cheap + `p.price = 3 and count(select c from c in PART where c.price < p.price) = 3`,
				cheap + `p.price = 1 and count(select c from c in PART where c.price < p.price) = 0`,
				cheap + `p.price = 3 and count(select c from c in PART where c.price < p.price) = 3`,
			},
			want: []Reuse{parsed, Fallback, FromTemplate, Fallback | FromTemplate | FromPlan}},
		{name: "a negative literal is structural",
			texts: []string{cheap + `p.price > -5 and p.price < 40`, cheap + `p.price > -5 and p.price < 50`, cheap + `p.price > -6 and p.price < 40`},
			want:  []Reuse{parsed, lexed | FromPlan, Fallback}},
		{name: "an integer is a date where a date is expected, in range",
			texts: []string{deliver + `d.date < 940105`, deliver + `d.date < 940102`, deliver + `d.date < 4294967296`, deliver + `d.date < 2147483647`},
			want:  []Reuse{parsed, lexed, failed, lexed}},
		{name: "a value that is a date and an integer has no recipe",
			texts: []string{
				deliver + `d.date > 3 and exists y in d.supply : y.quantity > 3`,
				deliver + `d.date > 4 and exists y in d.supply : y.quantity > 4`,
			},
			want: []Reuse{parsed, Fallback | FromTemplate | FromPlan}},
		{name: "1 and 1.0 are two classes",
			texts: []string{
				cheap + `p.price > 1 and exists f in {0.5, 2.5} : f > 1.0`,
				cheap + `p.price > 2 and exists f in {0.5, 2.5} : f > 2.0`,
				cheap + `p.price > 2 and exists f in {0.5, 2.5} : f > 0.5`,
			},
			want: []Reuse{parsed, lexed, FromTemplate | FromPlan}},
		{name: "string escapes",
			texts: []string{cheap + `p.color = "r\"ed" or p.pname = "\\"`, cheap + `p.color = "bl\\ue\n" or p.pname = "\""`},
			want:  []Reuse{parsed, lexed | FromPlan}},
		{name: "a literal out of range",
			texts: []string{cheap + `p.price < 5`, cheap + `p.price < 99999999999999999999`},
			want:  []Reuse{parsed, failed}},
		// PART.price has the buckets 25..29 (4 values, 4 rows) and 46 (5
		// rows) on liftStore.
		{name: "a literal in the bucket of the plan's takes it; in another, or above every value, it does not",
			texts: []string{cheap + `p.price = 25`, cheap + `p.price = 29`, cheap + `p.price = 46`,
				cheap + `p.price = 1000`, cheap + `p.price = 2000`, cheap + `p.price = 27`},
			want:  []Reuse{parsed, reused, lexed, lexed, reused, reused},
			plans: 3},
		{name: "equal estimates, and only those, take a plan",
			texts: []string{cheap + `p.price < 1000`, cheap + `p.price < 2000`, cheap + `p.price < 10`, cheap + `p.price < 900`},
			want:  []Reuse{parsed, reused, lexed, reused},
			plans: 2},
		{name: "an index range and a scan of one fingerprint keep their plans",
			texts: []string{cheap + `p.price < 10`, cheap + `p.price < 900`, cheap + `p.price < 11`, cheap + `p.price < 2000`},
			want:  []Reuse{parsed, lexed, reused, reused},
			shows: []string{"IndexScan(PART.price in (-∞, 10))", "ColumnScan(PART | p: p.price < 900 ",
				"IndexScan(PART.price in (-∞, 11))", "ColumnScan(PART | p: p.price < 2000 "},
			st:    indexedStore(),
			plans: 2},
	} {
		st := c.st
		if st == nil {
			st = liftStore()
		}
		cfg := plan.Config{Statistics: st.Analyze(), Parallelism: 1}
		tc := newMapTemplates()
		for i, src := range c.texts {
			q := checkAgainstPrepare(t, src, st, cfg, tc)
			switch {
			case q == nil && c.want[i] != failed:
				t.Errorf("%s: %s does not prepare", c.name, src)
			case q != nil && q.Reuse != c.want[i]:
				t.Errorf("%s: %s prepared with reuse %04b, want %04b", c.name, src, q.Reuse, c.want[i])
			case c.shows != nil && !strings.Contains(q.Explain(), c.shows[i]):
				t.Errorf("%s: %s does not plan %s:\n%s", c.name, src, c.shows[i], q.Explain())
			}
		}
		if got := tc.plans(); c.plans != 0 && got != c.plans {
			t.Errorf("%s: the template holds %d plans, want %d", c.name, got, c.plans)
		}
	}
}

// indexedStore is liftStore's data with an ordered index on PART.price.
var indexedStore = sync.OnceValue(func() *storage.Store {
	st := bench.Generate(bench.Config{Suppliers: 60, Parts: 120, Deliveries: 40,
		Fanout: 4, EmptyFrac: 0.1, DanglingFrac: 0.1, Seed: 94})
	if err := st.CreateIndex("PART", "price", storage.OrderedIndex); err != nil {
		panic(err)
	}
	st.Analyze()
	return st
})

// FuzzLift prepares a corpus query written with fuzzed literals through a
// template cache shared by all inputs of the process — so most inputs plan
// their literals with a template rewritten for other literals, or found by
// the text's fingerprint, or run a plan the template got for other literals —
// and checks it against the prepare without a cache (the same Explain) and
// the planned result against nested-loop evaluation of the untransformed
// query.
//
//	go test ./internal/core -run '^$' -fuzz FuzzLift -fuzztime 30s
func FuzzLift(f *testing.F) {
	for qi := range liftCorpus {
		f.Add(uint8(qi), int64(50), int64(10), "red", "supplier-1")
		f.Add(uint8(qi), int64(0), int64(0), "", "")
		f.Add(uint8(qi), int64(-7), int64(1<<40), "a\"b\\c", "red")
	}
	for qi := range liftCorpus {
		f.Add(uint8(qi), int64(30), int64(99), "part-3", "a\"b\\c")
		f.Add(uint8(qi), int64(7), int64(7), "blue", "blue")
	}
	st := liftStore()
	ctx := rewrite.NewContext(st.Catalog())
	cfg := plan.Config{Statistics: st.Analyze(), Parallelism: 1}
	tc := newMapTemplates()
	f.Fuzz(func(t *testing.T, qi uint8, i, j int64, s, u string) {
		if len(s)+len(u) > 1<<10 {
			t.Skip("oversized literal")
		}
		src := render(liftCorpus[int(qi)%len(liftCorpus)], []int64{i, j, i}, []string{s, u})
		q := checkAgainstPrepare(t, src, st, cfg, tc)
		if q == nil {
			t.Skip("a literal the front end rejects")
		}
		checkIdentity(t, q.ADL(), ctx)
	})
}
