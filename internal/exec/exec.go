// Package exec implements the physical algebra: Volcano-style iterator
// operators realizing the logical ADL operators. It contains the set-
// oriented implementations whose availability is the whole point of the
// paper's rewriting — hash joins, hash semijoins/antijoins, the hash
// nestjoin (grouping during join, §6.1), the PNHL algorithm of
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

// Ctx is the runtime context of a run: the database, the environment of
// outer (correlated) variable bindings, and the arguments of the plan's
// parameters (adl.Param slot i is Args[i]; a plan planned with its literals
// has none).
type Ctx struct {
	DB   eval.DB
	Env  *eval.Env
	Args []value.Value

	// hook is handed every stream the run opens; nil in a plain run.
	hook openHook
}

// Operator is a node of a physical plan: configuration fixed at plan time,
// nothing else. Running it is Open, which hands back the run's state as a
// stream of its own, so one tree serves any number of concurrent runs. Every
// node type declares Open on the value receiver — Open gets a copy and cannot
// leave anything on the node — and plans hold nodes by pointer: the pointer
// is the node's identity in estimate and tally tables.
type Operator interface {
	// Open starts a run of the subtree and returns its rows.
	Open(ctx *Ctx) (Rows, error)
}

// CloneTree returns op: a plan is immutable, so the tree itself is the fresh
// copy the contract promises.
//
// Deprecated: its only caller is benchmark/trace.go, which the engine may not
// edit; the exec.clone_us span it times there is now a no-op. Remove it with
// the next change to benchmark/.
func CloneTree(op Operator) Operator { return op }

// Rows is the row stream of one run of an operator, used by one goroutine.
type Rows interface {
	// Next returns the next row; ok is false at end of stream.
	Next() (row value.Value, ok bool, err error)
	// Close releases the run's resources: the streams of its children. Close
	// is idempotent.
	Close() error
}

// openHook sees every stream of a run where it is opened, and may wrap it:
// the row tally of an instrumented run (Tally), the stream tracker of the
// lifecycle tests.
type openHook interface {
	rows(op Operator, r Rows) Rows
}

// env is the environment the reference interpreter runs under: the outer
// bindings and the run's arguments.
func (c *Ctx) env() *eval.Env { return c.Env.WithArgs(c.Args) }

// open starts a run of a child. It is the only caller of an operator's Open.
func (c *Ctx) open(op Operator) (Rows, error) {
	rows, err := op.Open(c)
	if err != nil || c.hook == nil {
		return rows, err
	}
	return c.hook.rows(op, rows), nil
}

// Collect runs an operator and gathers its rows into a set (deduplicating,
// per set semantics). A Close error surfaces unless iteration already failed —
// streams close their children's in Close, and swallowing their errors would
// hide a failed teardown. The set is allocated once, at the size of a stream
// that knows it (sized); any other stream is gathered first.
func Collect(op Operator, ctx *Ctx) (_ *value.Set, err error) {
	rows, err := ctx.open(op)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := rows.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if b, ok := rows.(blocking); ok && b.buf().err == nil {
		return b.buf().set(), nil
	}
	if n := size(rows); n >= 0 {
		set := value.NewSetCap(n)
		for row, ok, err := rows.Next(); ok || err != nil; row, ok, err = rows.Next() {
			if err != nil {
				return nil, err
			}
			set.Add(row)
		}
		return set, nil
	}
	out, err := readAll(rows, nil)
	if err != nil {
		return nil, err
	}
	return value.NewSetFromSlice(out), nil
}

// sized is a stream that may know how many rows it has left (size ≥ 0): a
// blocking one, and a 1:1 operator's over one (through the tally's counting).
type sized interface{ size() int }

// size returns the rows r has left, or -1 if it cannot tell.
func size(r Rows) int {
	if s, ok := r.(sized); ok {
		return s.size()
	}
	return -1
}

// blocking is the stream of an operator whose Open has already computed every
// row: a rowBuf, which Collect, drain and the tally take whole.
type blocking interface {
	Rows
	buf() *rowBuf
}

// rowBuf is the stream of a blocking operator and of a leaf scan: Open
// computes every row into out (or points out at the extent) and returns it.
// hashes, if not nil, holds each row's value.Hash aligned with out (a
// ColumnScan's Out column), and then out is the buffer's own: set hands
// both to the set it builds. err, if not nil, follows the rows (a fused
// nestjoin's, joinEmit). Nobody else writes into out: it may be an extent's
// own slice.
type rowBuf struct {
	out    []value.Value
	hashes []uint64
	err    error
	pos    int
}

// buffered is the stream over rows.
func buffered(rows []value.Value) (Rows, error) { return &rowBuf{out: rows}, nil }

// Next yields the next buffered row.
func (b *rowBuf) Next() (value.Value, bool, error) {
	if b.pos >= len(b.out) {
		return nil, false, b.err
	}
	row := b.out[b.pos]
	b.pos++
	return row, true, nil
}

// Close has nothing to release.
func (b *rowBuf) Close() error { return nil }

func (b *rowBuf) buf() *rowBuf { return b }

// rest is the rows not yet handed up.
func (b *rowBuf) rest() []value.Value { return b.out[b.pos:] }

func (b *rowBuf) size() int { return len(b.rest()) }

// set builds the set of the remaining rows in one bulk pass, adopting the
// rows and their hashes where the buffer holds them.
func (b *rowBuf) set() *value.Set {
	if b.hashes != nil {
		return value.NewSetOwned(b.rest(), b.hashes[b.pos:])
	}
	return value.NewSetFromSlice(b.rest())
}

// drain runs an operator and returns its rows, propagating Close errors like
// Collect. A blocking stream hands its buffer over as it is, unless an error
// follows its rows; the caller must not write into the slice.
func drain(op Operator, ctx *Ctx) ([]value.Value, error) { return drainEach(op, ctx, nil) }

// drainEach is drain handing every row to each, if not nil, as it arrives: an
// error of a row comes before any the stream raises after it.
func drainEach(op Operator, ctx *Ctx, each func(value.Value) error) (_ []value.Value, err error) {
	rows, err := ctx.open(op)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := rows.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if b, ok := rows.(blocking); ok && b.buf().err == nil {
		out := b.buf().rest()
		for i := 0; each != nil && i < len(out); i++ {
			if err := each(out[i]); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	return readAll(rows, each)
}

// minGrow is the capacity a growing result of unknown size starts at (readAll,
// joinEmit but for a nestjoin), where append would reach it through nine
// reallocations. A result of known size is allocated at it: a nestjoin's
// (joinEmit.reserve), Collect's over a 1:1 stream.
const minGrow = 256

// readAll reads a stream to its end, handing every row to each, if not nil,
// as it arrives.
func readAll(rows Rows, each func(value.Value) error) ([]value.Value, error) {
	var out []value.Value
	for {
		row, ok, err := rows.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		if each != nil {
			if err := each(row); err != nil {
				return nil, err
			}
		}
		if len(out) == cap(out) {
			// A streaming operand's size is not known: double, where append
			// would grow a long slice by a quarter and copy it five times over.
			out = slices.Grow(out, max(len(out), minGrow))
		}
		out = append(out, row)
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
}

// Open hands up the extent.
func (s Scan) Open(ctx *Ctx) (Rows, error) {
	set, err := ctx.DB.Table(s.Table)
	if err != nil {
		return nil, err
	}
	return buffered(set.Elems())
}

// ExprScan evaluates an arbitrary ADL expression to a set with the
// reference interpreter and iterates it — the nested-loop fallback for plan
// fragments without a dedicated physical operator.
type ExprScan struct {
	Expr adl.Expr
}

// Open evaluates the expression.
func (s ExprScan) Open(ctx *Ctx) (Rows, error) {
	set, err := eval.EvalSet(s.Expr, ctx.env(), ctx.DB)
	if err != nil {
		return nil, err
	}
	return buffered(set.Elems())
}

// ---------------------------------------------------------------------------
// Row-at-a-time operators
// ---------------------------------------------------------------------------

// rowFn is the work a 1:≤1 operator does per input row: the row it emits and
// whether it emits one. n is what the stream keeps a copy of for it: σ and α
// pass a method expression of their Scalar, π and Assembly one of the node
// itself, so opening them allocates only their stream.
type rowFn[N any] func(n *N, ctx *Ctx, row value.Value) (out value.Value, keep bool, err error)

// mapped is the stream of the 1:≤1 operators: fn of n over the rows of src;
// all: fn keeps every row (every operator but σ).
type mapped[N any] struct {
	ctx *Ctx
	src Rows
	fn  rowFn[N]
	n   N
	all bool
}

// stream runs child and applies fn of n to each of its rows.
func stream[N any](c *Ctx, child Operator, n N, fn rowFn[N], all bool) (Rows, error) {
	src, err := c.open(child)
	if err != nil {
		return nil, err
	}
	return &mapped[N]{ctx: c, src: src, fn: fn, n: n, all: all}, nil
}

// size is src's for a 1:1 operator; σ's, an upper bound, would over-allocate.
func (m *mapped[N]) size() int {
	if !m.all {
		return -1
	}
	return size(m.src)
}

// Next yields the image of the next row fn keeps.
func (m *mapped[N]) Next() (value.Value, bool, error) {
	for {
		row, ok, err := m.src.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		out, keep, err := m.fn(&m.n, m.ctx, row)
		if err != nil {
			return nil, false, err
		}
		if keep {
			return out, true, nil
		}
	}
}

// Close closes the child's stream.
func (m *mapped[N]) Close() error { return m.src.Close() }

// Filter implements σ with a compiled predicate.
type Filter struct {
	Child Operator
	Var   string
	Pred  Scalar
}

// Open streams the child's rows that satisfy the predicate.
func (f Filter) Open(c *Ctx) (Rows, error) { return stream(c, f.Child, f.Pred, (*Scalar).keep, false) }

// MapOp implements α with a compiled body.
type MapOp struct {
	Child Operator
	Var   string
	Body  Scalar
}

// Open streams the image of the child's rows.
func (m MapOp) Open(c *Ctx) (Rows, error) { return stream(c, m.Child, m.Body, (*Scalar).image, true) }

// LetOp implements a with-binding: the (typically constant) value expression
// is evaluated once at Open and bound into the environment the child's
// scalars see — the physical form of "uncorrelated subqueries are constants"
// (§3).
type LetOp struct {
	Var   string
	Val   adl.Expr
	Child Operator
}

// Open evaluates the binding and runs the child under the extended
// environment; its rows are the child's.
func (l LetOp) Open(ctx *Ctx) (Rows, error) {
	v, err := eval.Eval(l.Val, ctx.env(), ctx.DB)
	if err != nil {
		return nil, err
	}
	child := *ctx
	child.Env = ctx.Env.Bind(l.Var, v)
	return child.open(l.Child)
}

// ProjectOp implements π.
type ProjectOp struct {
	Child Operator
	Attrs []string
}

// Open streams the projection of the child's rows.
func (p ProjectOp) Open(c *Ctx) (Rows, error) { return stream(c, p.Child, p, (*ProjectOp).row, true) }

func (p *ProjectOp) row(_ *Ctx, row value.Value) (value.Value, bool, error) {
	t, err := asTuple(row, "π")
	if err != nil {
		return nil, false, err
	}
	sub, err := t.Subscript(p.Attrs)
	return sub, true, err
}
