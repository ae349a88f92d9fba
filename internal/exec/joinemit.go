package exec

import (
	"slices"

	"repro/internal/adl"
	"repro/internal/value"
)

// joinEmit is the output rule of the join: what one left row emits once its
// matches are known. The algebra's ⋈, ⋉, ▷, outer join and nestjoin differ in
// nothing else, so every join operator — nested-loop, hash (serial or
// parallel, on equal keys or on membership), index — finds the candidate
// right rows its own way and hands them to this one verdict:
//
//	reserve(len(lrows)); for each left row { begin(lrow); for each candidate { if match(rrow) { break } }; end() }
//
// match applies the residual predicate, then concatenates (inner, outer),
// groups (nestjoin) or just notes the hit (semi, anti) — and for those two
// asks the caller to stop: the verdict is known, and a residual that would
// fail on a later pair is never evaluated. A failing pair stops the walk too;
// end reports it, or else emits what the kind owes an unmatched or fully
// matched row.
//
// A nestjoin emits one row per left row, sized once (reserve) and from one
// value.Block: the left row extended by its group, or α's row of the two
// where α is fused into the join (Sel). Sel's first error ends the rows and
// follows them (result), where α would have met it, so a join error of a
// later left row still wins.
//
// It is plain per-run state: an operator owns one per Open, each share of a
// parallel probe owns its own, and the owner takes the rows from result. A
// nestjoin builds every group of the run in one scratch set and emits an
// exact-size copy of it (nestGroup), and checks the layout of the rows it
// extends once per left-row layout.
type joinEmit struct {
	kind     adl.JoinKind
	op       string // names the operator in a non-tuple row's error
	ctx      *Ctx
	residual *Scalar // nil: every candidate is a match
	rfun     *Scalar // nestjoin: maps a matched pair to the group member
	as       string  // nestjoin: the group attribute
	sel      *Scalar // nestjoin: the row it emits for (left row, group); nil: the extended row
	nullPad  *value.Tuple
	// right is the materialized right operand matchAt indexes; members and
	// mhashes its rows' group members and their Hash (member).
	right   []value.Value
	members []value.Value
	mhashes []uint64

	out  []value.Value
	rows value.Block // a nestjoin's rows; the zero Block until the first
	tail error       // sel's first error: the rows stop there

	// The left row between begin and end.
	lrow    value.Value
	lt      *value.Tuple
	matched bool
	nest    nestGroup
	err     error // of a match; end returns it

	// from is the last left-row layout a nestjoin extended, to its layout
	// with the group attribute.
	from, to *value.Shape
}

// newJoinEmit prepares the verdict of one run. right is the materialized
// right operand, which matchAt indexes and an outer join pads unmatched rows
// from; operators that neither call matchAt nor run an outer join may pass
// nil.
func newJoinEmit(ctx *Ctx, kind adl.JoinKind, op string, residual, rfun, sel *Scalar, as string, right []value.Value) joinEmit {
	return joinEmit{kind: kind, op: op, ctx: ctx, residual: residual, rfun: rfun, sel: sel, as: as,
		nullPad: outerNullPad(kind, right), right: right}
}

// emptyRight is the verdict of a semi- or antijoin over an empty right
// operand, P(x, ∅) of §5.2.2: ∃y ∈ ∅ is false, so ⋉ keeps no left row and ▷
// keeps every one, in order, and no key or predicate is evaluated. Each left
// row must still be a tuple, as begin checks.
func emptyRight(kind adl.JoinKind, op string, lrows []value.Value) (Rows, error) {
	for _, row := range lrows {
		if _, ok := row.(*value.Tuple); !ok {
			_, err := asTuple(row, op)
			return nil, err
		}
	}
	if kind == adl.Semi {
		lrows = nil
	}
	return buffered(lrows)
}

// outerNullPad builds the null tuple over the right schema for outer joins;
// the other kinds pad nothing.
func outerNullPad(kind adl.JoinKind, right []value.Value) *value.Tuple {
	if kind != adl.Outer {
		return nil
	}
	if len(right) > 0 {
		if rt, ok := right[0].(*value.Tuple); ok {
			return value.NullTuple(rt.Shape)
		}
	}
	return value.EmptyTuple()
}

// reserve sizes a nestjoin's result for its n left rows, one row each; the
// other kinds emit any number and grow it in emit.
func (e *joinEmit) reserve(n int) {
	if e.kind == adl.NestJ {
		e.out = make([]value.Value, 0, n)
	}
}

// emit appends a result row. A full buffer doubles, from minGrow on, where
// append would grow a long result by a quarter at a time.
func (e *joinEmit) emit(row value.Value) {
	if len(e.out) == cap(e.out) {
		e.out = slices.Grow(e.out, max(len(e.out), minGrow))
	}
	e.out = append(e.out, row)
}

// begin starts a left row.
func (e *joinEmit) begin(lrow value.Value) (err error) {
	e.lrow, e.matched, e.err = lrow, false, nil
	e.nest.reset()
	e.lt, err = asTuple(lrow, e.op)
	return err
}

// match offers a candidate right row. It reports whether to stop: further
// candidates cannot change what the left row emits, or the pair failed.
func (e *joinEmit) match(rrow value.Value) (stop bool) { return e.offer(rrow, -1) }

// matchAt is match of right row i.
func (e *joinEmit) matchAt(i int) (stop bool) { return e.offer(e.right[i], i) }

// offer is match of rrow, which is right row i, or i < 0.
func (e *joinEmit) offer(rrow value.Value, i int) (stop bool) {
	if e.residual != nil {
		ok, err := e.residual.Bool(e.ctx, e.lrow, rrow)
		if err != nil || !ok {
			e.err = err
			return err != nil
		}
	}
	e.matched = true
	switch e.kind {
	case adl.Semi, adl.Anti:
		return true
	case adl.NestJ:
		member, h, err := e.member(rrow, i)
		if e.err = err; err != nil {
			return true
		}
		e.nest.add(member, h)
	default:
		var rt, cat *value.Tuple
		if rt, e.err = asTuple(rrow, e.op); e.err != nil {
			return true
		}
		if cat, e.err = e.lt.Concat(rt); e.err != nil {
			return true
		}
		e.emit(cat)
	}
	return false
}

// member is the group member of the left row and rrow, which is right row i
// (or i < 0), and its Hash: rrow, or RFun of the pair. One that depends on
// the right row alone (an RFun like p.pname) is computed on the row's first
// match and kept for the run; a Hash of 0 reads as not yet computed.
func (e *joinEmit) member(rrow value.Value, i int) (value.Value, uint64, error) {
	if i >= 0 && e.mhashes != nil && e.mhashes[i] != 0 {
		return e.members[i], e.mhashes[i], nil
	}
	m := rrow
	if e.rfun != nil {
		var err error
		if m, err = e.rfun.Eval(e.ctx, e.lrow, rrow); err != nil {
			return nil, 0, err
		}
	}
	h := value.Hash(m)
	if i >= 0 && (e.rfun == nil || e.rfun.rightOnly) {
		if e.mhashes == nil {
			e.members, e.mhashes = e.right, make([]uint64, len(e.right))
			if e.rfun != nil {
				e.members = make([]value.Value, len(e.right))
			}
		}
		if e.mhashes[i] = h; e.rfun != nil {
			e.members[i] = m
		}
	}
	return m, h, nil
}

// end finishes the left row.
func (e *joinEmit) end() error {
	if e.err != nil {
		return e.err
	}
	switch e.kind {
	case adl.Semi, adl.Anti:
		if e.matched == (e.kind == adl.Semi) {
			e.emit(e.lrow)
		}
	case adl.NestJ:
		if e.lt.Shape != e.from {
			to, err := e.lt.Shape.With(e.as)
			if err != nil {
				return err
			}
			e.from, e.to = e.lt.Shape, to
		}
		if e.sel != nil {
			e.project()
			return nil
		}
		row, vals := e.alloc(e.to)
		vals[copy(vals, e.lt.Vals())] = e.nest.compact()
		e.emit(row)
	case adl.Outer:
		if !e.matched {
			cat, err := e.lt.Concat(e.nullPad)
			if err != nil {
				return err
			}
			e.emit(cat)
		}
	}
	return nil
}

// project emits sel's row of the left row and its group, unless an earlier
// one failed. Its error is the one α meets on the extended row, whose text
// an error may print.
func (e *joinEmit) project() {
	if e.tail != nil {
		return
	}
	group := e.nest.compact()
	var row value.Value
	var err error
	if c := e.sel.row; c != nil {
		t, vals := e.alloc(c.shape)
		row, err = t, c.fill(e.ctx, e.lrow, group, vals)
	} else {
		row, err = e.sel.prog(e.ctx, e.lrow, group)
	}
	if err == nil {
		e.emit(row)
		return
	}
	ext, vals := e.to.Alloc()
	vals[copy(vals, e.lt.Vals())] = group
	if _, e.tail = e.sel.prog(e.ctx, ext, group); e.tail == nil {
		e.tail = err
	}
}

// alloc returns a new row of shape sh: from the block sized at the first row
// for the rows still to come, while the rows keep its shape.
func (e *joinEmit) alloc(sh *value.Shape) (*value.Tuple, []value.Value) {
	if e.rows.Shape() == nil {
		e.rows = sh.Block(cap(e.out) - len(e.out))
	}
	if e.rows.Shape() != sh {
		return sh.Alloc()
	}
	return e.rows.Alloc()
}

// result is the stream of what the verdict emitted: its rows, then a fused
// nestjoin's tail.
func (e *joinEmit) result() *rowBuf { return &rowBuf{out: e.out, err: e.tail} }

// nestGroup collects the members a nestjoin or PNHL finds for one left row.
// The set is created by the first member; left rows without a partner all
// carry noMatches. PNHL keeps one group per left row across its segments and
// emits it as built (set). The join verdict keeps one group for the whole
// run: reset empties it for the next row and compact emits a copy, so a
// group costs one right-sized allocation and the scratch set's arrays are
// allocated once while no group outgrows value.SmallSet (Set.Reset).
type nestGroup struct{ members *value.Set }

// noMatches is shared by every unmatched left row of every query, which the
// Set contract allows: a set is never mutated once it is shared.
var noMatches = value.EmptySet()

// add adds member, whose Hash is h.
func (g *nestGroup) add(member value.Value, h uint64) {
	if g.members == nil {
		g.members = value.EmptySet()
	}
	g.members.AddHashed(member, h)
}

func (g *nestGroup) set() *value.Set {
	if g.members == nil {
		return noMatches
	}
	return g.members
}

func (g *nestGroup) reset() {
	if g.members != nil {
		g.members.Reset()
	}
}

func (g *nestGroup) compact() *value.Set {
	if g.members == nil || g.members.Len() == 0 {
		return noMatches
	}
	return g.members.Compact()
}
