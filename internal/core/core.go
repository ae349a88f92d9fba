// Package core is the front door of the library: the paper's full pipeline —
// OOSQL parsing, translation into ADL (§3), the rewrite of nested queries into
// join queries (§4–§6), physical planning, execution — behind a small API. A
// *Query is immutable once prepared: Execute is safe for concurrent use.
//
//	q, err := core.Prepare(src, store.Catalog())
//	result, err := q.Execute(store)
//	fmt.Println(q.Explain())
package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/adl"
	"repro/internal/eval"
	"repro/internal/exec"
	"repro/internal/oosql"
	"repro/internal/plan"
	"repro/internal/rewrite"
	"repro/internal/schema"
	"repro/internal/translate"
	"repro/internal/types"
	"repro/internal/value"
)

// Query is a prepared OOSQL query: its text, its translation, its rewrite and
// its physical plan. There is no syntax tree; a prepare by token fingerprint
// never builds one, and binds the query's literals into its translation and
// its rewrite only when ADL or Rewritten is called.
type Query struct {
	// Source is the OOSQL text.
	Source string
	// Type is the reference-annotated result type.
	Type types.Type
	// Plan is the physical operator tree for the rewritten form. Prepared
	// through a TemplateCache it is the template's, holding parameters
	// (adl.Param) that a run reads from Planned.Args().
	Plan exec.Operator
	// Planned is the annotated plan behind Plan: per-node cost estimates
	// (from the default statistics when planned without any), the arguments
	// of its parameters, and the runtime-feedback surface (instrumented
	// execution, observed row counts, q-error drift).
	Planned *plan.Plan
	// Reuse says what the prepare took from its TemplateCache.
	Reuse Reuse

	translation adl.Expr      // the §3 translation; nil: the template's, bound on demand
	tmpl        *Template     // the template of the query's shape
	args        []value.Value // the literals adl.Lift took out of the translation
}

// ADL returns the §3 translation (nested algebraic form, the nested-loop
// execution model).
func (q *Query) ADL() adl.Expr {
	if q.translation != nil {
		return q.translation
	}
	return adl.Bind(q.tmpl.lifted, q.args)
}

// Rewritten returns the result of the §4 optimization strategy. Its Expr has
// the query's literals; its Trace is the template's, shared by every query of
// the shape and rendered with them by Explain.
func (q *Query) Rewritten() *rewrite.Result {
	r := *q.tmpl.rewritten
	r.Expr = adl.Bind(r.Expr, q.args)
	return &r
}

// Reuse is a set of flags: what a prepare took from its TemplateCache.
type Reuse uint8

const (
	// FromTemplate: the rewritten template came from the cache.
	FromTemplate Reuse = 1 << iota
	// FromFingerprint: the template came by the text's token fingerprint,
	// with the recipe that makes the text's literals its arguments; the
	// prepare was lex → args → plan, or lex → args with FromPlan. Set with
	// FromTemplate.
	FromFingerprint
	// Fallback: the text's fingerprint was cached, but the text took the
	// full path.
	Fallback
	// FromPlan: the plan came from the template too. It was planned for
	// other literals, and every estimate that read one is the same with this
	// query's, so the planner would build it again. Set with FromTemplate.
	FromPlan
)

// Template is what the queries of one shape share: the translation with its
// literals lifted (adl.Lift), the result type, the rewrite of the lifted form
// and, in a cache, the plans of the rewrite its queries got. Under a text's
// token fingerprint it also holds the recipe that makes the literals of a
// text with that fingerprint the template's arguments.
type Template struct {
	lifted    adl.Expr
	typ       types.Type
	rewritten *rewrite.Result
	recipe    *recipe // nil: none, or not valid for the fingerprint
	plans     *plans  // nil: not cached; shared with the fingerprint entries
}

// Plans reports how many plans the template holds.
func (t *Template) Plans() int {
	if t.plans == nil {
		return 0
	}
	if l := t.plans.list.Load(); l != nil {
		return len(*l)
	}
	return 0
}

// MaxPlans bounds the plans a template holds: one per estimate signature its
// queries met under the configuration of the newest, the newest kept.
const MaxPlans = 4

// plans are the plans a template's queries got, newest first, replaced whole
// (copy on write).
type plans struct{ list atomic.Pointer[[]*plan.Plan] }

// rebind returns the plan cfg would build for the template with args, if one
// of the list is it (plan.Plan.Rebind), or nil.
func (ps *plans) rebind(cfg plan.Config, args []value.Value) *plan.Plan {
	if l := ps.list.Load(); l != nil {
		for _, p := range *l {
			if r := p.Rebind(cfg, args); r != nil {
				return r
			}
		}
	}
	return nil
}

// add puts p, planned under cfg, first, unless the list holds it already (a
// concurrent prepare planned it too). A plan of another configuration — of
// the statistics before a write, say — goes, and so does the oldest past
// MaxPlans.
func (ps *plans) add(cfg plan.Config, p *plan.Plan) {
	for {
		old := ps.list.Load()
		l := append(make([]*plan.Plan, 0, MaxPlans), p)
		if old != nil {
			for _, o := range *old {
				switch {
				case !o.Under(cfg):
				case o.Rebind(cfg, p.Args()) != nil:
					return
				case len(l) < MaxPlans:
					l = append(l, o)
				}
			}
		}
		if ps.list.CompareAndSwap(old, &l) {
			return
		}
	}
}

// TemplateCache remembers templates across queries. A template is cached
// under two keys: its lifted key (adl.Lift), which the rewrite depends on
// alone, and the token fingerprint (oosql.Fingerprint) of each text prepared from
// it, which finds it without a parse. A prepare is lex → parse → translate →
// lift → rewrite → plan; with a cache the rewrite runs once per query shape, a
// text whose fingerprint was seen is lex → args → plan, and the plan too is
// the template's when the text's literals leave every estimate as it was.
type TemplateCache interface {
	// Template returns the template cached under key, or nil. key is valid
	// during the call only.
	Template(key []byte) *Template
	// Put caches t under key. key is valid during the call only.
	Put(key []byte, t *Template)
}

// The first byte of a key says its kind, so a lifted key and a fingerprint
// are never equal.
const (
	liftedKey      = 'L'
	fingerprintKey = 'F'
)

// keyBuf holds the buffers a prepare builds its two keys in.
type keyBuf struct{ fp, lifted []byte }

var keyBufs = sync.Pool{New: func() any { return new(keyBuf) }}

// Prepare parses, typechecks, translates, optimizes and plans an OOSQL
// query against a catalog.
func Prepare(src string, cat *schema.Catalog) (*Query, error) {
	return PrepareCfg(src, cat, plan.Config{})
}

// PrepareCfg is Prepare with an explicit physical-planner configuration, so
// callers holding collected statistics (or tuning parallelism) get a
// cost-based plan instead of the zero-config heuristics.
func PrepareCfg(src string, cat *schema.Catalog, cfg plan.Config) (*Query, error) {
	return PrepareCached(src, cat, cfg, nil)
}

// PrepareCached is PrepareCfg taking the template from tc (nil: rewrite it
// here). A text whose token fingerprint tc holds with a recipe that accepts
// its literals is lex → args → plan, and its lexer pass (oosql.Fingerprint)
// builds no tokens; any other is lexed again for the parser and takes the
// full path, which caches the template under the text's fingerprint with the
// recipe derived from it. Without a cache the planner gets the rewrite with the literals
// bound back in. With one it plans the template, the literals its arguments,
// so index ranges, selectivities and operators are still those of the query
// as written; and a plan the template holds is the query's when its
// estimates are (plan.Plan.Rebind), which makes the prepare lex → args.
func PrepareCached(src string, cat *schema.Catalog, cfg plan.Config, tc TemplateCache) (*Query, error) {
	buf := keyBufs.Get().(*keyBuf)
	defer keyBufs.Put(buf)
	var text oosql.Text
	var fp []byte
	var reuse Reuse
	if tc != nil {
		var err error
		if text, err = oosql.Fingerprint(src, append(buf.fp[:0], fingerprintKey)); err != nil {
			return nil, err
		}
		if fp = text.Fingerprint; fp != nil {
			buf.fp = fp
			if t := tc.Template(fp); t != nil {
				if args, ok := t.recipe.args(text.Classes); ok {
					return t.query(src, nil, args, cfg, FromTemplate|FromFingerprint), nil
				}
				reuse, fp = Fallback, nil
			}
		}
	}
	// The parser needs the tokens: a second pass, on a miss or a Fallback
	// only, whose fingerprint, classes and error are the first's.
	toks, err := oosql.Lex(src)
	if err != nil {
		return nil, err
	}
	ast, err := oosql.ParseTokens(toks)
	if err != nil {
		return nil, err
	}
	e, typ, err := translate.Translate(ast, cat)
	if err != nil {
		return nil, err
	}
	tmpl, args, key := adl.Lift(e, append(buf.lifted[:0], liftedKey))
	buf.lifted = key
	var t *Template
	if tc != nil {
		t = tc.Template(key)
	}
	if t != nil {
		reuse |= FromTemplate
	} else {
		t = &Template{lifted: tmpl, typ: typ, rewritten: rewrite.Optimize(tmpl, rewrite.NewContext(cat))}
		if tc != nil {
			t.plans = new(plans)
			tc.Put(key, t)
		}
	}
	if fp != nil {
		shape := *t
		shape.recipe = newRecipe(text, e, tmpl, args)
		tc.Put(fp, &shape)
	}
	return t.query(src, e, args, cfg, reuse), nil
}

// query finishes a prepare of the translation e (nil: the template's with
// args bound in): the template's rewrite planned with args as the values of
// its parameters — a plan the template holds for them, or a new one it keeps
// — or, not cached, planned with args bound in.
func (t *Template) query(src string, e adl.Expr, args []value.Value, cfg plan.Config, reuse Reuse) *Query {
	var pl *plan.Plan
	switch {
	case t.plans == nil:
		pl = cfg.Plan(adl.Bind(t.rewritten.Expr, args))
	default:
		if pl = t.plans.rebind(cfg, args); pl != nil {
			reuse |= FromPlan
		} else {
			pl = cfg.PlanWith(t.rewritten.Expr, args)
			t.plans.add(cfg, pl)
		}
	}
	return &Query{Source: src, Type: t.typ, Plan: pl.Root, Planned: pl, Reuse: reuse,
		translation: e, tmpl: t, args: args}
}

// A recipe makes the literal classes of a text (oosql.Text.Classes) the
// arguments of its template: uses[i] says what class i becomes.
type recipe struct {
	uses  []classUse
	slots int
}

type classUse struct {
	slot int         // the argument the class is; -1: structural
	date bool        // the argument is the class's integer as a date
	val  value.Value // structural: the value the template holds
}

// newRecipe derives the recipe of a text from its translation e, e's lift
// tmpl and the lifted args. It returns nil unless
//   - each slot's value is exactly one class's, unchanged or as a date
//     (translate.DateOf, translate's one value coercion);
//   - the slot is lifted from as many literals of e as the class has: no
//     literal of the class was left in the template, and no constant the
//     translator made shares the slot (a subtree the translator uses twice
//     is one literal);
//   - every other class is structural: left in the template, so a text of
//     the fingerprint must have the value this one has.
func newRecipe(text oosql.Text, e, tmpl adl.Expr, args []value.Value) *recipe {
	r := &recipe{uses: make([]classUse, len(text.Classes)), slots: len(args)}
	for i, v := range text.Classes {
		r.uses[i] = classUse{slot: -1, val: v}
	}
	lifted := make([]int, len(args))
	countLifted(e, tmpl, map[adl.Expr]bool{}, lifted)
	for s, a := range args {
		c := -1
		for i, v := range text.Classes {
			date := false
			if !value.Equal(a, v) {
				n, isInt := v.(value.Int)
				d, ok := translate.DateOf(n)
				if !isInt || !ok || !value.Equal(a, d) {
					continue
				}
				date = true
			}
			if c >= 0 || r.uses[i].slot >= 0 {
				return nil
			}
			c, r.uses[i] = i, classUse{slot: s, date: date}
		}
		if c < 0 || lifted[s] != text.Counts[c] {
			return nil
		}
	}
	return r
}

// countLifted adds to n, per slot of tmpl (e's lift), the number of distinct
// literals of e lifted into it.
func countLifted(e, tmpl adl.Expr, seen map[adl.Expr]bool, n []int) {
	if p, ok := tmpl.(*adl.Param); ok {
		if !seen[e] {
			seen[e] = true
			n[p.Slot]++
		}
		return
	}
	ec := adl.Children(e)
	for i, c := range adl.Children(tmpl) {
		countLifted(ec[i], c, seen, n)
	}
}

// args converts a text's classes into the template's arguments. It fails
// when there is no recipe, a class does not convert, a structural class has
// another value than the recipe's text had, or two arguments are equal:
// Lift would have put them in one slot, whatever value.Equal makes of the
// kinds the conversions yield.
func (r *recipe) args(classes []value.Value) ([]value.Value, bool) {
	if r == nil {
		return nil, false
	}
	args := make([]value.Value, r.slots)
	for i, u := range r.uses {
		v := classes[i]
		switch {
		case u.slot < 0:
			if !value.Equal(v, u.val) {
				return nil, false
			}
			continue
		case u.date:
			n, _ := v.(value.Int)
			d, ok := translate.DateOf(n)
			if !ok {
				return nil, false
			}
			v = d
		}
		for _, a := range args {
			if a != nil && value.Equal(a, v) {
				return nil, false
			}
		}
		args[u.slot] = v
	}
	return args, true
}

// Execute runs the optimized physical plan.
func (q *Query) Execute(db eval.DB) (*value.Set, error) {
	return exec.Collect(q.Plan, &exec.Ctx{DB: db, Args: q.Planned.Args()})
}

// ExecuteNaive runs the untransformed nested form tuple-at-a-time — the
// baseline the paper's optimizations are measured against.
func (q *Query) ExecuteNaive(db eval.DB) (*value.Set, error) {
	return eval.EvalSet(q.ADL(), nil, db)
}

// Explain renders every pipeline stage: the translation, the rewrite trace
// with the §4 options used, and the physical plan.
func (q *Query) Explain() string {
	var b strings.Builder
	rw := q.Rewritten()
	fmt.Fprintf(&b, "OOSQL:\n  %s\n\n", strings.Join(strings.Fields(q.Source), " "))
	fmt.Fprintf(&b, "ADL (§3 translation):\n  %s\n\n", q.ADL())
	if len(rw.Trace) > 0 {
		b.WriteString("rewrite steps:\n")
		for _, s := range rw.Trace {
			fmt.Fprintf(&b, "  [%s]\n    %s\n", s.Rule, adl.Bind(s.After, q.args))
		}
		b.WriteString("\n")
	}
	opts := "none — executed by nested loops"
	if len(rw.OptionsUsed) > 0 {
		opts = strings.Join(rw.OptionsUsed, ", ")
	}
	fmt.Fprintf(&b, "options used (§4 strategy): %s\n", opts)
	fmt.Fprintf(&b, "nested base tables: %d → %d\n\n", rw.NestedBefore, rw.NestedAfter)
	fmt.Fprintf(&b, "optimized ADL:\n  %s\n\n", rw.Expr)
	fmt.Fprintf(&b, "physical plan:\n%s", indent(plan.Explain(q.Plan, q.Planned.Args()...), "  "))
	return b.String()
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}
