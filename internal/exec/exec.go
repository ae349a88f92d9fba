// Package exec implements the physical algebra: Volcano-style iterator
// operators realizing the logical ADL operators. It contains the set-
// oriented implementations whose availability is the whole point of the
// paper's rewriting — hash joins, hash semijoins/antijoins, the hash and
// sort-merge nestjoin (grouping during join, §6.1), the PNHL algorithm of
// [DeLa92] for joining a set-valued attribute with a base table (§6.2), and
// the assembly operator implementing materialize via oid pointers
// ([BlMG93], §6.2) — alongside naive nested-loop counterparts used as
// baselines.
//
// Rows are value.Value (usually *value.Tuple); duplicate elimination happens
// when a result is collected into a set, matching the algebra's set
// semantics.
package exec

import (
	"fmt"
	"slices"

	"repro/internal/adl"
	"repro/internal/eval"
	"repro/internal/value"
)

// Ctx is the runtime context of a plan: the database and the environment of
// outer (correlated) variable bindings.
type Ctx struct {
	DB  eval.DB
	Env *eval.Env
}

// Operator is a Volcano-style iterator.
type Operator interface {
	// Open prepares the operator for iteration.
	Open(ctx *Ctx) error
	// Next returns the next row; ok is false at end of stream.
	Next() (row value.Value, ok bool, err error)
	// Close releases resources. Close is idempotent.
	Close() error
}

// Collect drains an operator into a set (deduplicating, per set semantics).
// A Close error surfaces unless iteration already failed — operators release
// pipelines (goroutines, channels) in Close, and swallowing their errors
// would hide a failed teardown.
func Collect(op Operator, ctx *Ctx) (_ *value.Set, err error) {
	if sc, ok := op.(SetCollector); ok {
		return sc.CollectSet(ctx)
	}
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	defer func() {
		if cerr := op.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	out := value.EmptySet()
	if b, ok := op.(blocking); ok {
		out = value.NewSetCap(b.buffered())
	}
	for {
		row, ok, err := op.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out.Add(row)
	}
}

// blocking is implemented by operators whose Open has already computed every
// row; buffered is how many are left to hand up.
type blocking interface{ buffered() int }

// rowBuf is the output side of a blocking operator and of a leaf scan: Open
// computes every row into out (or points out at the extent), the promoted
// Next hands them up. It is embedded — an unexported field, so CloneTree
// leaves it zero — and lets Collect and drain size their results.
type rowBuf struct {
	out []value.Value
	pos int
}

func (b *rowBuf) reset() { b.out, b.pos = b.out[:0], 0 }

// Next yields the next buffered row.
func (b *rowBuf) Next() (value.Value, bool, error) {
	if b.pos >= len(b.out) {
		return nil, false, nil
	}
	row := b.out[b.pos]
	b.pos++
	return row, true, nil
}

func (b *rowBuf) buffered() int { return len(b.out) - b.pos }

// drain materializes an operator's rows into a slice, propagating Close
// errors like Collect. A VecAdapter hands over its materialized buffer
// directly instead of being copied row by row.
func drain(op Operator, ctx *Ctx) (_ []value.Value, err error) {
	if a, ok := op.(*VecAdapter); ok {
		rows, err := a.drainVec(ctx)
		if err != nil {
			return nil, err
		}
		a.out = nil // ownership moves to the caller
		return rows, nil
	}
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	defer func() {
		if cerr := op.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	var rows []value.Value
	if b, ok := op.(blocking); ok {
		rows = make([]value.Value, 0, b.buffered())
	}
	for {
		row, ok, err := op.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return rows, nil
		}
		if len(rows) == cap(rows) {
			// A streaming operand's size is not known: double, where append
			// would grow a long slice by a quarter and copy it five times over.
			rows = slices.Grow(rows, max(len(rows), chunkRows))
		}
		rows = append(rows, row)
	}
}

// asTuple asserts a row is a tuple.
func asTuple(row value.Value, op string) (*value.Tuple, error) {
	t, ok := row.(*value.Tuple)
	if !ok {
		return nil, fmt.Errorf("exec: %s over non-tuple row %s", op, row.Kind())
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Leaf operators
// ---------------------------------------------------------------------------

// Scan iterates a base table.
type Scan struct {
	Table string

	rowBuf
}

// Open materializes the extent.
func (s *Scan) Open(ctx *Ctx) error {
	set, err := ctx.DB.Table(s.Table)
	if err != nil {
		return err
	}
	s.out, s.pos = set.Elems(), 0
	return nil
}

// Close releases the scan.
func (s *Scan) Close() error { s.out = nil; return nil }

// SetScan iterates an in-memory set.
type SetScan struct {
	Set *value.Set

	rowBuf
}

// Open resets the iterator.
func (s *SetScan) Open(*Ctx) error { s.out, s.pos = s.Set.Elems(), 0; return nil }

// Close is a no-op.
func (s *SetScan) Close() error { return nil }

// ExprScan evaluates an arbitrary ADL expression to a set with the
// reference interpreter and iterates it — the nested-loop fallback for plan
// fragments without a dedicated physical operator.
type ExprScan struct {
	Expr adl.Expr

	rowBuf
}

// Open evaluates the expression.
func (s *ExprScan) Open(ctx *Ctx) error {
	set, err := eval.EvalSet(s.Expr, ctx.Env, ctx.DB)
	if err != nil {
		return err
	}
	s.out, s.pos = set.Elems(), 0
	return nil
}

// Close releases the buffer.
func (s *ExprScan) Close() error { s.out = nil; return nil }

// ---------------------------------------------------------------------------
// Row-at-a-time operators
// ---------------------------------------------------------------------------

// Filter implements σ with a compiled predicate.
type Filter struct {
	Child Operator
	Var   string
	Pred  Scalar

	ctx *Ctx
}

// Open opens the child.
func (f *Filter) Open(ctx *Ctx) error { f.ctx = ctx; return f.Child.Open(ctx) }

// Next yields the next row satisfying the predicate.
func (f *Filter) Next() (value.Value, bool, error) {
	for {
		row, ok, err := f.Child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		keep, err := f.Pred.Bool(f.ctx, row)
		if err != nil {
			return nil, false, err
		}
		if keep {
			return row, true, nil
		}
	}
}

// Close closes the child.
func (f *Filter) Close() error { return f.Child.Close() }

// MapOp implements α with a compiled body.
type MapOp struct {
	Child Operator
	Var   string
	Body  Scalar

	ctx *Ctx
}

// Open opens the child.
func (m *MapOp) Open(ctx *Ctx) error { m.ctx = ctx; return m.Child.Open(ctx) }

// Next yields the image of the next row.
func (m *MapOp) Next() (value.Value, bool, error) {
	row, ok, err := m.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	v, err := m.Body.Eval(m.ctx, row)
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}

// Close closes the child.
func (m *MapOp) Close() error { return m.Child.Close() }

// LetOp implements a with-binding: the (typically constant) value expression
// is evaluated once at Open and bound into the environment the child's
// scalars see — the physical form of "uncorrelated subqueries are constants"
// (§3).
type LetOp struct {
	Var   string
	Val   adl.Expr
	Child Operator
}

// Open evaluates the binding and opens the child under the extended
// environment.
func (l *LetOp) Open(ctx *Ctx) error {
	v, err := eval.Eval(l.Val, ctx.Env, ctx.DB)
	if err != nil {
		return err
	}
	child := &Ctx{DB: ctx.DB, Env: ctx.Env.Bind(l.Var, v)}
	return l.Child.Open(child)
}

// Next forwards to the child.
func (l *LetOp) Next() (value.Value, bool, error) { return l.Child.Next() }

// Close closes the child.
func (l *LetOp) Close() error { return l.Child.Close() }

// ProjectOp implements π.
type ProjectOp struct {
	Child Operator
	Attrs []string
}

// Open opens the child.
func (p *ProjectOp) Open(ctx *Ctx) error { return p.Child.Open(ctx) }

// Next yields the projection of the next row.
func (p *ProjectOp) Next() (value.Value, bool, error) {
	row, ok, err := p.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	t, err := asTuple(row, "π")
	if err != nil {
		return nil, false, err
	}
	sub, err := t.Subscript(p.Attrs)
	if err != nil {
		return nil, false, err
	}
	return sub, true, nil
}

// Close closes the child.
func (p *ProjectOp) Close() error { return p.Child.Close() }
