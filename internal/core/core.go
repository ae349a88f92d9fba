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

// Query is a prepared OOSQL query: every pipeline stage is retained for
// inspection.
type Query struct {
	// Source is the OOSQL text.
	Source string
	// AST is the parsed syntax tree.
	AST oosql.Expr
	// ADL is the §3 translation (nested algebraic form, the nested-loop
	// execution model).
	ADL adl.Expr
	// Type is the reference-annotated result type.
	Type types.Type
	// Rewritten is the result of the §4 optimization strategy. Its Expr has
	// the query's literals; its Trace is the template's, shared by every
	// query of the shape and rendered with them by Explain.
	Rewritten *rewrite.Result
	// Plan is the physical operator tree for the rewritten form.
	Plan exec.Operator
	// Planned is the annotated plan behind Plan: per-node cost estimates
	// (from the default statistics when planned without any) and the
	// runtime-feedback surface (instrumented execution, observed row counts,
	// q-error drift).
	Planned *plan.Plan

	cat  *schema.Catalog
	args []value.Value // the literals adl.Lift took out of ADL
}

// TemplateCache remembers rewritten templates across queries. A prepare is
// parse → translate → lift → rewrite → bind → plan, and the rewrite depends
// on the lifted template alone: with a cache it runs once per query shape.
type TemplateCache interface {
	// Template returns what is cached under key, or else build's result,
	// cached. key is valid during the call only; the result is shared.
	Template(key []byte, build func() *rewrite.Result) *rewrite.Result
}

// keyBufs holds the buffers template keys are built in.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

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

// PrepareCached is PrepareCfg taking the rewritten template from tc (nil:
// rewrite it here). The planner gets it with the literals bound back in, so
// index ranges, selectivities and operators are those of the query as written.
func PrepareCached(src string, cat *schema.Catalog, cfg plan.Config, tc TemplateCache) (*Query, error) {
	ast, err := oosql.Parse(src)
	if err != nil {
		return nil, err
	}
	e, t, err := translate.Translate(ast, cat)
	if err != nil {
		return nil, err
	}
	buf := keyBufs.Get().(*[]byte)
	tmpl, args, key := adl.Lift(e, (*buf)[:0])
	build := func() *rewrite.Result { return rewrite.Optimize(tmpl, rewrite.NewContext(cat)) }
	var res *rewrite.Result
	if tc != nil {
		res = tc.Template(key, build)
	} else {
		res = build()
	}
	*buf = key
	keyBufs.Put(buf)
	bound := *res
	bound.Expr = adl.Bind(res.Expr, args)
	pl := cfg.Plan(bound.Expr)
	return &Query{
		Source:    src,
		AST:       ast,
		ADL:       e,
		Type:      t,
		Rewritten: &bound,
		Plan:      pl.Root,
		Planned:   pl,
		cat:       cat,
		args:      args,
	}, nil
}

// Execute runs the optimized physical plan.
func (q *Query) Execute(db eval.DB) (*value.Set, error) {
	return exec.Collect(q.Plan, &exec.Ctx{DB: db})
}

// ExecuteNaive runs the untransformed nested form tuple-at-a-time — the
// baseline the paper's optimizations are measured against.
func (q *Query) ExecuteNaive(db eval.DB) (*value.Set, error) {
	return eval.EvalSet(q.ADL, nil, db)
}

// Explain renders every pipeline stage: the translation, the rewrite trace
// with the §4 options used, and the physical plan.
func (q *Query) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "OOSQL:\n  %s\n\n", strings.Join(strings.Fields(q.Source), " "))
	fmt.Fprintf(&b, "ADL (§3 translation):\n  %s\n\n", q.ADL)
	if len(q.Rewritten.Trace) > 0 {
		b.WriteString("rewrite steps:\n")
		for _, s := range q.Rewritten.Trace {
			fmt.Fprintf(&b, "  [%s]\n    %s\n", s.Rule, adl.Bind(s.After, q.args))
		}
		b.WriteString("\n")
	}
	opts := "none — executed by nested loops"
	if len(q.Rewritten.OptionsUsed) > 0 {
		opts = strings.Join(q.Rewritten.OptionsUsed, ", ")
	}
	fmt.Fprintf(&b, "options used (§4 strategy): %s\n", opts)
	fmt.Fprintf(&b, "nested base tables: %d → %d\n\n", q.Rewritten.NestedBefore, q.Rewritten.NestedAfter)
	fmt.Fprintf(&b, "optimized ADL:\n  %s\n\n", q.Rewritten.Expr)
	fmt.Fprintf(&b, "physical plan:\n%s", indent(plan.Explain(q.Plan), "  "))
	return b.String()
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}
