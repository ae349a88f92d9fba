// Package rewrite implements the paper's core contribution: the logical
// optimization of nested ADL expressions. Nested OOSQL queries translate
// into nested algebraic expressions (tuple-oriented, nested-loop
// processing); the rules in this package transform them into set-oriented
// join queries. The rule inventory follows the paper:
//
//   - Table 1 / Table 2: rewriting set comparison operations between query
//     blocks into quantifier expressions (table1.go)
//   - range simplification and the quantifier-exchange heuristic of
//     Rewriting Example 3 (quant.go)
//   - Rule 1: unnesting quantifier expressions into semijoins and antijoins,
//     and Rule 2: nested map to join (join.go)
//   - Option "unnesting of attributes": μ-based unnesting when the final
//     nest can be skipped (unnestattr.go)
//   - Option "new operators": nestjoin introduction (nestjoin.go)
//   - the [GaWo87] unnesting-by-grouping transformation with the Table 3
//     static analysis P(x, ∅) guarding against the Complex Object bug
//     (grouping.go, emptyeval.go)
//   - the §4 priority strategy combining all options (strategy.go)
package rewrite

import (
	"fmt"

	"repro/internal/adl"
	"repro/internal/types"
)

// Context carries schema information and fresh-name state through rewriting.
type Context struct {
	// Resolver supplies base table and class types; may be nil, in which
	// case type-dependent rules (nestjoin, attribute unnest, grouping) do
	// not fire.
	Resolver adl.TypeResolver
	// Env types the free variables of the expression being rewritten.
	Env adl.TypeEnv
}

// clone returns a copy of the context with an extended environment.
func (ctx *Context) bind(name string, t types.Type) *Context {
	env := make(adl.TypeEnv, len(ctx.Env)+1)
	for k, v := range ctx.Env {
		env[k] = v
	}
	env[name] = t
	return &Context{Resolver: ctx.Resolver, Env: env}
}

// typeOf statically types e in the current context.
func (ctx *Context) typeOf(e adl.Expr) (types.Type, error) {
	if ctx.Resolver == nil {
		return nil, fmt.Errorf("rewrite: no type resolver")
	}
	return adl.Infer(e, ctx.Env, ctx.Resolver)
}

// schOf returns the attribute names of a table-typed expression, or false.
func (ctx *Context) schOf(e adl.Expr) ([]string, bool) {
	t, err := ctx.typeOf(e)
	if err != nil {
		return nil, false
	}
	names, err := types.SCH(types.Erase(t))
	if err != nil {
		return nil, false
	}
	return names, true
}

// elemOf returns the element type of a set-typed expression.
func (ctx *Context) elemOf(e adl.Expr) (types.Type, bool) {
	t, err := ctx.typeOf(e)
	if err != nil {
		return nil, false
	}
	st, ok := t.(*types.Set)
	if !ok {
		return nil, false
	}
	return st.Elem, true
}

// Rule is a local rewrite: it either returns a replacement and true, or its
// input unchanged and false. Rules must be semantics-preserving (validated
// against the reference evaluator by the package tests).
type Rule struct {
	Name  string
	Apply func(e adl.Expr, ctx *Context) (adl.Expr, bool)
}

// Step records one rule firing for explanation output: the rule and the node
// it produced. After is kept as an expression and printed by whoever shows
// the trace — most traces are never shown — and, when Optimize ran on a
// lifted template, holds adl.Param leaves, which whoever shows it binds.
type Step struct {
	Rule  string
	After adl.Expr
}

// Engine applies a rule list bottom-up to a fixpoint.
type Engine struct {
	Rules []Rule
	// MaxSteps bounds total rule firings as a termination backstop.
	MaxSteps int
	// Trace accumulates the steps of the last Run.
	Trace []Step

	steps int
}

// NewEngine builds an engine over the rules with a generous step budget.
func NewEngine(rules []Rule) *Engine {
	return &Engine{Rules: rules, MaxSteps: 10000}
}

// Run rewrites e to a fixpoint of the engine's rules.
func (en *Engine) Run(e adl.Expr, ctx *Context) adl.Expr {
	en.steps = 0
	for {
		next := en.pass(e, ctx)
		if adl.Equal(next, e) || en.steps >= en.MaxSteps {
			return next
		}
		e = next
	}
}

// pass performs one bottom-up traversal, applying rules exhaustively at each
// node on the way up. Binder types are threaded into the context so rules
// can call typeOf on open subexpressions.
func (en *Engine) pass(e adl.Expr, ctx *Context) adl.Expr {
	e = en.rebuild(e, ctx)
	for en.steps < en.MaxSteps {
		fired := false
		for _, r := range en.Rules {
			out, ok := r.Apply(e, ctx)
			if !ok {
				continue
			}
			en.Trace = append(en.Trace, Step{Rule: r.Name, After: out})
			en.steps++
			// The replacement may expose further work in its children.
			e = en.rebuild(out, ctx)
			fired = true
			break
		}
		if !fired {
			return e
		}
	}
	return e
}

// rebuild recursively rewrites the children of e, extending the type
// environment under binders.
func (en *Engine) rebuild(e adl.Expr, ctx *Context) adl.Expr {
	switch n := e.(type) {
	case *adl.Map:
		src := en.pass(n.Src, ctx)
		bctx := ctx.bindElem(n.Var, src)
		return &adl.Map{Var: n.Var, Body: en.pass(n.Body, bctx), Src: src}
	case *adl.Select:
		src := en.pass(n.Src, ctx)
		bctx := ctx.bindElem(n.Var, src)
		return &adl.Select{Var: n.Var, Pred: en.pass(n.Pred, bctx), Src: src}
	case *adl.Quant:
		src := en.pass(n.Src, ctx)
		bctx := ctx.bindElem(n.Var, src)
		return &adl.Quant{Kind: n.Kind, Var: n.Var, Src: src, Pred: en.pass(n.Pred, bctx)}
	case *adl.Let:
		val := en.pass(n.Val, ctx)
		var bctx *Context
		if t, err := ctx.typeOf(val); err == nil {
			bctx = ctx.bind(n.Var, t)
		} else {
			bctx = ctx.bind(n.Var, types.Bottom)
		}
		return &adl.Let{Var: n.Var, Val: val, Body: en.pass(n.Body, bctx)}
	case *adl.Join:
		l := en.pass(n.L, ctx)
		r := en.pass(n.R, ctx)
		bctx := ctx.bindElem(n.LVar, l).bindElem(n.RVar, r)
		j := &adl.Join{Kind: n.Kind, LVar: n.LVar, RVar: n.RVar,
			On: en.pass(n.On, bctx), As: n.As, L: l, R: r}
		if n.RFun != nil {
			j.RFun = en.pass(n.RFun, bctx)
		}
		return j
	default:
		return adl.Rebuild(e, func(c adl.Expr) adl.Expr { return en.pass(c, ctx) })
	}
}

// bindElem binds name to the element type of the (set-typed) source
// expression, or to ⊥ when the type cannot be determined; type-dependent
// rules then skip.
func (ctx *Context) bindElem(name string, src adl.Expr) *Context {
	if elem, ok := ctx.elemOf(src); ok {
		return ctx.bind(name, elem)
	}
	return ctx.bind(name, types.Bottom)
}

// ContainsTable reports whether any base table reference occurs in e.
func ContainsTable(e adl.Expr) bool {
	return adl.CountNodes(e, func(x adl.Expr) bool {
		_, ok := x.(*adl.Table)
		return ok
	}) > 0
}

// NestedTableCount is the §3 optimization objective: the number of base
// table references occurring nested within parameter expressions of
// iterators (the predicate of σ and joins, the body of α, the predicate of
// quantifiers, nestjoin functions). The goal of rewriting is to drive this
// to zero, so base tables occur only at top level.
func NestedTableCount(e adl.Expr) int {
	count := 0
	var walk func(e adl.Expr, inParam bool)
	countTables := func(e adl.Expr) int {
		return adl.CountNodes(e, func(x adl.Expr) bool {
			_, ok := x.(*adl.Table)
			return ok
		})
	}
	walk = func(e adl.Expr, inParam bool) {
		switch n := e.(type) {
		case *adl.Table:
			if inParam {
				count++
			}
		case *adl.Map:
			walk(n.Src, inParam)
			count += countTables(n.Body)
		case *adl.Select:
			walk(n.Src, inParam)
			count += countTables(n.Pred)
		case *adl.Quant:
			// A quantifier is itself an iterator: its range is an operand
			// position, its predicate a parameter expression.
			walk(n.Src, inParam)
			count += countTables(n.Pred)
		case *adl.Join:
			walk(n.L, inParam)
			walk(n.R, inParam)
			count += countTables(n.On)
			if n.RFun != nil {
				count += countTables(n.RFun)
			}
		default:
			for _, c := range adl.Children(e) {
				walk(c, inParam)
			}
		}
	}
	walk(e, false)
	return count
}
