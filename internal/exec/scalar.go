package exec

import (
	"fmt"
	"slices"

	"repro/internal/adl"
	"repro/internal/eval"
	"repro/internal/value"
)

// Scalar is a scalar expression compiled for evaluation against operator
// rows: Vars name the positional bindings supplied at call time, on top of
// the plan context's outer environment. Every physical operator is unary or
// binary, so a scalar ranges over at most two rows.
//
// NewScalar is the only constructor. It compiles Expr once, at plan time,
// into prog: a tree of closures in which a variable is a positional slot, a
// constant is captured, a parameter (adl.Param) is read from the run's
// Ctx.Args, a tuple constructor's shape is already derived, and no eval.Env
// exists. The tree is immutable — closures capture plan-time values only,
// never anything a run produced — so concurrent runs of a plan and the
// workers of a parallel operator share one Scalar.
type Scalar struct {
	Vars []string
	Expr adl.Expr

	prog prog
	// row, for a tuple constructor, lets a caller fill rows it allocated.
	row *tupleCons
	// rightOnly: over two variables, the scalar reads only the second.
	rightOnly bool
}

// prog evaluates one compiled node; a and b are the values of Vars[0] and
// Vars[1] (nil where the scalar has fewer). Passing the slots by value keeps
// the caller's argument list off the heap: nothing handed to a closure call
// can be proven not to escape.
type prog func(ctx *Ctx, a, b value.Value) (value.Value, error)

// tupleProg and boolProg are operands already checked to be of their kind.
type (
	tupleProg func(ctx *Ctx, a, b value.Value) (*value.Tuple, error)
	boolProg  func(ctx *Ctx, a, b value.Value) (bool, error)
)

// NewScalar compiles e over the given variables; later variables shadow
// earlier ones, and both shadow the outer environment. It panics on more than
// two variables, which no operator can supply.
func NewScalar(e adl.Expr, vars ...string) Scalar {
	if len(vars) > 2 {
		panic(fmt.Sprintf("exec: scalar over %d variables; operators bind at most two", len(vars)))
	}
	s := Scalar{Vars: vars, Expr: e, prog: compile(e, vars), rightOnly: len(vars) == 2 && !adl.HasFree(e, vars[0])}
	if n, ok := e.(*adl.TupleExpr); ok {
		s.row = newTupleCons(n.Names, n.Elems, vars)
	}
	return s
}

// Eval evaluates the scalar with the given variable values.
func (s Scalar) Eval(ctx *Ctx, vals ...value.Value) (value.Value, error) {
	if len(vals) != len(s.Vars) {
		return nil, fmt.Errorf("exec: scalar arity mismatch: %d vars, %d values", len(s.Vars), len(vals))
	}
	var slots [2]value.Value
	copy(slots[:], vals)
	return s.prog(ctx, slots[0], slots[1])
}

// Bool evaluates the scalar as a predicate.
func (s Scalar) Bool(ctx *Ctx, vals ...value.Value) (bool, error) {
	v, err := s.Eval(ctx, vals...)
	if err != nil {
		return false, err
	}
	b, ok := v.(value.Bool)
	if !ok {
		return false, fmt.Errorf("exec: predicate returned %s", v.Kind())
	}
	return bool(b), nil
}

// keep is the rowFn of σ: a row passes when the predicate holds of it.
func (s *Scalar) keep(ctx *Ctx, row value.Value) (value.Value, bool, error) {
	ok, err := s.Bool(ctx, row)
	return row, ok, err
}

// image is the rowFn of α: every row maps to the scalar's value of it.
func (s *Scalar) image(ctx *Ctx, row value.Value) (value.Value, bool, error) {
	v, err := s.Eval(ctx, row)
	return v, true, err
}

// joinKeys returns the key scalars a hash join evaluates per row. Its keys
// are only hashed and compared with each other, so for x[a] = y[a] the value
// of a stands for the one-field tuple — same verdicts, no key tuple per row.
// A row without the attribute is left to the full scalar to report.
func joinKeys(l, r Scalar) (Scalar, Scalar) {
	ls, rs, ok := subscriptPair(l, r)
	if !ok {
		return l, r
	}
	return attrKey(l, ls), attrKey(r, rs)
}

// subscriptPair reports keys x[a] = y[a] on one attribute, whose value
// joinKeys lets stand for the key tuple.
func subscriptPair(l, r Scalar) (ls, rs *adl.Subscript, ok bool) {
	ls, lok := l.Expr.(*adl.Subscript)
	rs, rok := r.Expr.(*adl.Subscript)
	return ls, rs, lok && rok && len(ls.Attrs) == 1 && slices.Equal(ls.Attrs, rs.Attrs)
}

// keyAttr is the attribute of the row whose value is the left key of the
// pair joinKeys evaluates — x.a, or x[a] paired with y[a], x being the key's
// variable — or "" for a key that computes anything more.
func keyAttr(l, r Scalar) string {
	var x adl.Expr
	attr := ""
	switch e := l.Expr.(type) {
	case *adl.Field:
		x, attr = e.X, e.Name
	case *adl.Subscript:
		if _, _, ok := subscriptPair(l, r); ok {
			x, attr = e.X, e.Attrs[0]
		}
	}
	if v, ok := x.(*adl.Var); ok && slot(l.Vars, v.Name) == 0 {
		return attr
	}
	return ""
}

func attrKey(s Scalar, n *adl.Subscript) Scalar {
	x, attr, full := compileTuple(n.X, s.Vars, "subscript"), n.Attrs[0], s.prog
	s.Expr = adl.Dot(n.X, attr) // what prog computes wherever the row has attr
	s.prog = func(ctx *Ctx, a, b value.Value) (value.Value, error) {
		t, err := x(ctx, a, b)
		if err != nil {
			return nil, err
		}
		if v, ok := t.Get(attr); ok {
			return v, nil
		}
		return full(ctx, a, b)
	}
	return s
}

// compile translates the scalar operators the planner emits into closures
// over eval's value-level helpers, so each operator's semantics and error text
// keep their one definition there. Any other node — iterators, quantifiers,
// set algebra — is evaluated by the reference interpreter under an
// environment built from the slots; its operands are then interpreted too.
func compile(e adl.Expr, vars []string) prog {
	switch n := e.(type) {
	case *adl.Const:
		v := n.Val
		return func(*Ctx, value.Value, value.Value) (value.Value, error) { return v, nil }

	case *adl.Param:
		return func(ctx *Ctx, _, _ value.Value) (value.Value, error) { return eval.Arg(n, ctx.Args) }

	case *adl.Var:
		switch slot(vars, n.Name) {
		case 0:
			return func(_ *Ctx, a, _ value.Value) (value.Value, error) { return a, nil }
		case 1:
			return func(_ *Ctx, _, b value.Value) (value.Value, error) { return b, nil }
		}
		name := n.Name
		return func(ctx *Ctx, _, _ value.Value) (value.Value, error) {
			v, ok := ctx.Env.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("eval: unbound variable %q", name)
			}
			return v, nil
		}

	case *adl.Field:
		x, name := compile(n.X, vars), n.Name
		return func(ctx *Ctx, a, b value.Value) (value.Value, error) {
			v, err := x(ctx, a, b)
			if err != nil {
				return nil, err
			}
			return eval.Field(v, name, ctx.DB)
		}

	case *adl.Subscript:
		x, attrs := compileTuple(n.X, vars, "subscript"), n.Attrs
		return func(ctx *Ctx, a, b value.Value) (value.Value, error) {
			t, err := x(ctx, a, b)
			if err != nil {
				return nil, err
			}
			return t.Subscript(attrs)
		}

	case *adl.TupleExpr:
		if c := newTupleCons(n.Names, n.Elems, vars); c != nil {
			return func(ctx *Ctx, a, b value.Value) (value.Value, error) { return c.build(ctx, a, b) }
		}

	case *adl.ExceptExpr:
		x := compileTuple(n.X, vars, "except")
		if c := newTupleCons(n.Names, n.Elems, vars); c != nil {
			return func(ctx *Ctx, a, b value.Value) (value.Value, error) {
				t, err := x(ctx, a, b)
				if err != nil {
					return nil, err
				}
				upd, err := c.build(ctx, a, b)
				if err != nil {
					return nil, err
				}
				return t.Except(upd), nil
			}
		}

	case *adl.Concat:
		l, r := compileTuple(n.L, vars, "concat"), compileTuple(n.R, vars, "concat")
		return func(ctx *Ctx, a, b value.Value) (value.Value, error) {
			lt, err := l(ctx, a, b)
			if err != nil {
				return nil, err
			}
			rt, err := r(ctx, a, b)
			if err != nil {
				return nil, err
			}
			return lt.Concat(rt)
		}

	case *adl.Cmp:
		return binary(n.Op, compile(n.L, vars), compile(n.R, vars), eval.Cmp)

	case *adl.Arith:
		return binary(n.Op, compile(n.L, vars), compile(n.R, vars), eval.Arith)

	case *adl.Not:
		x := compileBool(n.X, vars, "¬")
		return func(ctx *Ctx, a, b value.Value) (value.Value, error) {
			v, err := x(ctx, a, b)
			return value.Bool(!v), err
		}

	case *adl.And:
		return compileConnective(n.L, n.R, vars, "∧", false)

	case *adl.Or:
		return compileConnective(n.L, n.R, vars, "∨", true)

	case *adl.Agg:
		x, op := compile(n.X, vars), n.Op
		return func(ctx *Ctx, a, b value.Value) (value.Value, error) {
			v, err := x(ctx, a, b)
			if err != nil {
				return nil, err
			}
			s, err := eval.AsSet(v, op.String())
			if err != nil {
				return nil, err
			}
			return eval.Agg(op, s)
		}
	}
	return func(ctx *Ctx, a, b value.Value) (value.Value, error) {
		env := ctx.env()
		for i, name := range vars {
			env = env.Bind(name, [2]value.Value{a, b}[i])
		}
		return eval.Eval(e, env, ctx.DB)
	}
}

// slot resolves a variable to its position, or -1 for an outer variable.
func slot(vars []string, name string) int {
	for i := len(vars) - 1; i >= 0; i-- {
		if vars[i] == name {
			return i
		}
	}
	return -1
}

// binary compiles l op r for an operator whose semantics is the helper f.
func binary[O any](op O, l, r prog, f func(O, value.Value, value.Value) (value.Value, error)) prog {
	return func(ctx *Ctx, a, b value.Value) (value.Value, error) {
		lv, err := l(ctx, a, b)
		if err != nil {
			return nil, err
		}
		rv, err := r(ctx, a, b)
		if err != nil {
			return nil, err
		}
		return f(op, lv, rv)
	}
}

// compileTuple compiles an operand that must be a tuple (or an oid, which is
// followed).
func compileTuple(e adl.Expr, vars []string, op string) tupleProg {
	x := compile(e, vars)
	return func(ctx *Ctx, a, b value.Value) (*value.Tuple, error) {
		v, err := x(ctx, a, b)
		if err != nil {
			return nil, err
		}
		return eval.AsTuple(v, ctx.DB, op)
	}
}

// compileBool compiles an operand that must be a boolean.
func compileBool(e adl.Expr, vars []string, op string) boolProg {
	x := compile(e, vars)
	return func(ctx *Ctx, a, b value.Value) (bool, error) {
		v, err := x(ctx, a, b)
		if err != nil {
			return false, err
		}
		return eval.AsBool(v, op)
	}
}

// compileConnective compiles l ∧ r (decided = false) or l ∨ r (decided =
// true): the right operand is evaluated only when the left one does not
// decide the result.
func compileConnective(l, r adl.Expr, vars []string, op string, decided bool) prog {
	lb, rb := compileBool(l, vars, op), compileBool(r, vars, op)
	return func(ctx *Ctx, a, b value.Value) (value.Value, error) {
		v, err := lb(ctx, a, b)
		if err != nil || v == decided {
			return value.Bool(v), err
		}
		v, err = rb(ctx, a, b)
		return value.Bool(v), err
	}
}

// tupleCons is a compiled tuple constructor ⟨names[i] = elems[i]⟩: its
// shape, derived once, and a program per attribute.
type tupleCons struct {
	shape *value.Shape
	elems []prog
}

// newTupleCons compiles ⟨names[i] = elems[i]⟩. It returns nil for a repeated
// name, which is left to the interpreter to report.
func newTupleCons(names []string, elems []adl.Expr, vars []string) *tupleCons {
	shape, err := value.ShapeOf(names)
	if err != nil {
		return nil
	}
	c := &tupleCons{shape: shape, elems: make([]prog, len(elems))}
	for i, el := range elems {
		c.elems[i] = compile(el, vars)
	}
	return c
}

// build evaluates the constructor into a row of its own: one Shape.Alloc.
func (c *tupleCons) build(ctx *Ctx, a, b value.Value) (*value.Tuple, error) {
	row, vals := c.shape.Alloc()
	if err := c.fill(ctx, a, b, vals); err != nil {
		return nil, err
	}
	return row, nil
}

// fill evaluates the attributes into vals, the slots of a row of c.shape.
func (c *tupleCons) fill(ctx *Ctx, a, b value.Value, vals []value.Value) error {
	for i, p := range c.elems {
		v, err := p(ctx, a, b)
		if err != nil {
			return err
		}
		vals[i] = v
	}
	return nil
}
