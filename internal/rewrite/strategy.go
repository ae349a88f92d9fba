package rewrite

import (
	"fmt"
	"math"

	"repro/internal/adl"
	"repro/internal/schema"
	"repro/internal/types"
)

// Result is the outcome of Optimize: the rewritten expression, the full rule
// trace, and which of the §4 options contributed.
type Result struct {
	Expr adl.Expr
	// Trace lists every rule firing in order.
	Trace []Step
	// OptionsUsed names the §4 options that fired, in priority order, among
	// "relational-join", "attribute-unnest", "nestjoin" and "constant-hoist".
	OptionsUsed []string
	// NestedBefore/NestedAfter are the optimization objective (base tables
	// nested in iterator parameters) before and after.
	NestedBefore, NestedAfter int
}

// relationalRules is the rule set of optimization option "transformation
// into join queries": normalization, Table 1/2 expansion, quantifier range
// simplification and exchange, negation pushing, and Rules 1 and 2.
func relationalRules() []Rule {
	var rules []Rule
	rules = append(rules, NormalizeRules()...)
	rules = append(rules, ExpandRules()...)
	rules = append(rules, QuantRules()...)
	rules = append(rules, NegationRules()...)
	rules = append(rules, JoinRules()...)
	return rules
}

// candidate is what one option produced: its expression, the steps of its
// engine runs, and the options it reports (none when no rule fired).
type candidate struct {
	expr    adl.Expr
	trace   []Step
	options []string
}

func newCandidate(expr adl.Expr, trace []Step, options ...string) candidate {
	if len(trace) == 0 {
		options = nil
	}
	return candidate{expr, trace, options}
}

// Optimize applies the paper's §4 rewrite strategy to the normalized input,
// as one ordered list of options:
//
//  1. rewrite to the relational join operators (join, semijoin, antijoin);
//  2. flatten set-valued attributes (when the nesting phase can be
//     skipped), then the relational rules again, from the normalized input;
//  3. rewrite to the nestjoin operator, which was introduced to beat
//     nested-loop processing, then the relational rules, on option 1's
//     result (subquery shapes that survived expansion, e.g. aggregates
//     between blocks);
//  4. the same from the normalized input, for queries whose block structure
//     the expansion rules would dissolve (set comparisons between blocks,
//     §5.2.2);
//  5. hoist uncorrelated subqueries, which are constants, into with-bindings
//     evaluated once (§3), on the best result so far.
//
// An option runs only while the best result still nests a base table, so
// the list stops at the first option that removes them all, and it replaces
// the best only when it leaves strictly fewer. Whatever remains is executed
// by nested loops.
func Optimize(e adl.Expr, ctx *Context) *Result {
	norm := NewEngine(NormalizeRules())
	base := norm.Run(e, ctx)
	var relational candidate                    // option 1's result, which option 3 starts from
	best, bestCount := candidate{}, math.MaxInt // option 1 is always the first best
	options := []func() (candidate, bool){
		func() (candidate, bool) {
			en := NewEngine(relationalRules())
			relational = newCandidate(en.Run(base, ctx), en.Trace, "relational-join")
			return relational, true
		},
		func() (candidate, bool) {
			en := NewEngine(append(AttrUnnestRules(), relationalRules()...))
			return newCandidate(en.Run(base, ctx), en.Trace, "attribute-unnest", "relational-join"), true
		},
		func() (candidate, bool) {
			x, trace, ok := nestjoin(relational.expr, ctx)
			trace = append(append([]Step{}, relational.trace...), trace...)
			return newCandidate(x, trace, "relational-join", "nestjoin"), ok
		},
		func() (candidate, bool) {
			x, trace, ok := nestjoin(base, ctx)
			return newCandidate(x, trace, "nestjoin", "relational-join"), ok
		},
		func() (candidate, bool) {
			en := NewEngine([]Rule{{Name: "hoist-constant", Apply: hoistConstant}})
			x := en.Run(best.expr, ctx)
			trace := append(append([]Step{}, best.trace...), en.Trace...)
			return candidate{x, trace, append(append([]string{}, best.options...), "constant-hoist")}, true
		},
	}
	for _, option := range options {
		if bestCount == 0 {
			break
		}
		if c, ok := option(); ok {
			if n := NestedTableCount(c.expr); n < bestCount {
				best, bestCount = c, n
			}
		}
	}
	return &Result{Expr: best.expr, Trace: append(norm.Trace, best.trace...),
		OptionsUsed: best.options, NestedBefore: NestedTableCount(e), NestedAfter: bestCount}
}

// nestjoin runs the nestjoin rules on e and then the relational rules on
// their result, or reports false when no nestjoin rule fires.
func nestjoin(e adl.Expr, ctx *Context) (adl.Expr, []Step, bool) {
	nj := NewEngine(NestjoinRules())
	x := nj.Run(e, ctx)
	if adl.Equal(x, e) {
		return nil, nil, false
	}
	rel := NewEngine(relationalRules())
	return rel.Run(x, ctx), append(nj.Trace, rel.Trace...), true
}

// CatalogResolver adapts a schema catalog to the adl.TypeResolver interface
// used by type-dependent rules.
type CatalogResolver struct{ Cat *schema.Catalog }

// TableElem returns the reference-annotated element type of an extent.
func (r CatalogResolver) TableElem(name string) (*types.Tuple, error) {
	cl, ok := r.Cat.ByExtent(name)
	if !ok {
		return nil, fmt.Errorf("rewrite: unknown base table %q", name)
	}
	return r.Cat.ObjectType(cl)
}

// ClassTuple returns the reference-annotated object type of a class.
func (r CatalogResolver) ClassTuple(class string) (*types.Tuple, error) {
	cl, ok := r.Cat.Class(class)
	if !ok {
		return nil, fmt.Errorf("rewrite: unknown class %q", class)
	}
	return r.Cat.ObjectType(cl)
}

// NewContext builds a rewrite context over a catalog.
func NewContext(cat *schema.Catalog) *Context {
	return &Context{Resolver: CatalogResolver{Cat: cat}, Env: adl.TypeEnv{}}
}

// StaticResolver resolves table types from an explicit map; used for
// catalog-less databases such as the paper's figure examples.
type StaticResolver struct{ Tables map[string]*types.Tuple }

// TableElem returns the element type of a table.
func (r StaticResolver) TableElem(name string) (*types.Tuple, error) {
	t, ok := r.Tables[name]
	if !ok {
		return nil, fmt.Errorf("rewrite: unknown base table %q", name)
	}
	return t, nil
}

// ClassTuple always fails: static resolvers carry no class schema.
func (r StaticResolver) ClassTuple(class string) (*types.Tuple, error) {
	return nil, fmt.Errorf("rewrite: unknown class %q", class)
}

// NewStaticContext builds a rewrite context over explicit table types.
func NewStaticContext(tables map[string]*types.Tuple) *Context {
	return &Context{Resolver: StaticResolver{Tables: tables}, Env: adl.TypeEnv{}}
}
