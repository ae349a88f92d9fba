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
	mu   sync.Mutex
	m    map[string]*rewrite.Result
	hits int
}

func (c *mapTemplates) Template(key []byte, build func() *rewrite.Result) *rewrite.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	if res, ok := c.m[string(key)]; ok {
		c.hits++
		return res
	}
	res := build()
	c.m[string(key)] = res
	return res
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
	tc := &mapTemplates{m: map[string]*rewrite.Result{}}
	for _, c := range cases {
		fired := func(src string) bool {
			q, err := PrepareCached(src, st.Catalog(), plan.Config{}, tc)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			checkAgainstNaive(t, q, st)
			for _, s := range q.Rewritten.Trace {
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
	if tc.hits != 0 || len(tc.m) != 2*len(cases) {
		t.Errorf("%d templates, %d hits; want %d distinct templates", len(tc.m), tc.hits, 2*len(cases))
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
	}
	if tc.hits != 0 {
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

// TestTemplateReuse: the second query of a shape takes the first one's
// rewritten template, whatever its literals, and is planned with its own.
func TestTemplateReuse(t *testing.T) {
	st := liftStore()
	tc := &mapTemplates{m: map[string]*rewrite.Result{}}
	cfg := plan.Config{Statistics: st.Analyze(), Parallelism: 1}
	for round, ints := range [][]int64{{50, 10, 2}, {0, 0, 0}, {30, 99, 1}} {
		for qi, text := range liftCorpus {
			src := render(text, ints, []string{"red", "supplier-1", "part-3"}[round:])
			q, err := PrepareCached(src, st.Catalog(), cfg, tc)
			if err != nil {
				t.Fatalf("corpus %d: %v", qi, err)
			}
			checkAgainstNaive(t, q, st)
			direct, err := PrepareCfg(src, st.Catalog(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !adl.Equal(q.Rewritten.Expr, direct.Rewritten.Expr) || q.Explain() != direct.Explain() {
				t.Fatalf("corpus %d round %d: cached template explains as\n%s\nwant\n%s", qi, round, q.Explain(), direct.Explain())
			}
		}
	}
	if tc.hits < len(liftCorpus) {
		t.Errorf("%d template hits over three rounds of %d queries", tc.hits, len(liftCorpus))
	}
}

// FuzzLift prepares a corpus query written with fuzzed literals through a
// template cache shared by all inputs of the process — so most inputs bind
// their literals into a template rewritten for other literals — and compares
// the planned result with nested-loop evaluation of the untransformed query.
//
//	go test ./internal/core -run '^$' -fuzz FuzzLift -fuzztime 30s
func FuzzLift(f *testing.F) {
	for qi := range liftCorpus {
		f.Add(uint8(qi), int64(50), int64(10), "red", "supplier-1")
		f.Add(uint8(qi), int64(0), int64(0), "", "")
		f.Add(uint8(qi), int64(-7), int64(1<<40), "a\"b\\c", "red")
	}
	st := liftStore()
	ctx := rewrite.NewContext(st.Catalog())
	cfg := plan.Config{Statistics: st.Analyze(), Parallelism: 1}
	tc := &mapTemplates{m: map[string]*rewrite.Result{}}
	f.Fuzz(func(t *testing.T, qi uint8, i, j int64, s, u string) {
		if len(s)+len(u) > 1<<10 {
			t.Skip("oversized literal")
		}
		src := render(liftCorpus[int(qi)%len(liftCorpus)], []int64{i, j, i}, []string{s, u})
		q, err := PrepareCached(src, st.Catalog(), cfg, tc)
		if err != nil {
			t.Skip(err) // a literal the lexer rejects
		}
		checkIdentity(t, q.ADL, ctx)
		checkAgainstNaive(t, q, st)
	})
}
