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
//	begin(lrow); for each candidate { if match(rrow) { break } }; end()
//
// match applies the residual predicate, then concatenates (inner, outer),
// groups (nestjoin) or just notes the hit (semi, anti) — and for those two
// asks the caller to stop: the verdict is known, and a residual that would
// fail on a later pair is never evaluated. A failing pair stops the walk too;
// end reports it, or else emits what the kind owes an unmatched or fully
// matched row.
//
// It is plain per-run state: an operator owns one per Open, each share of a
// parallel probe owns its own, and the owner takes the rows from out. A
// nestjoin builds every group of the run in one scratch set and emits an
// exact-size copy of it (nestGroup), and derives the layout of the rows it
// emits once per left-row layout.
type joinEmit struct {
	kind     adl.JoinKind
	op       string // names the operator in a non-tuple row's error
	ctx      *Ctx
	residual *Scalar // nil: every candidate is a match
	rfun     *Scalar // nestjoin: maps a matched pair to the group member
	as       string  // nestjoin: the group attribute
	nullPad  *value.Tuple
	// right is the materialized right operand matchAt indexes; rhashes, if
	// not nil, the Hash of each of its rows (memberHashes).
	right   []value.Value
	rhashes []uint64

	out []value.Value

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
func newJoinEmit(ctx *Ctx, kind adl.JoinKind, op string, residual, rfun *Scalar, as string, right []value.Value) joinEmit {
	return joinEmit{kind: kind, op: op, ctx: ctx, residual: residual, rfun: rfun, as: as,
		nullPad: outerNullPad(kind, right), right: right}
}

// memberHashes is each of rows' Hash when they are themselves the members of
// a nestjoin's groups (no RFun), so that a group adds a build row without
// reading the row; it is nil for every other join.
func memberHashes(kind adl.JoinKind, rfun *Scalar, rows []value.Value) []uint64 {
	if kind != adl.NestJ || rfun != nil {
		return nil
	}
	hs := make([]uint64, len(rows))
	for i, r := range rows {
		hs[i] = value.Hash(r)
	}
	return hs
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
		if e.rfun != nil {
			var member value.Value
			if member, e.err = e.rfun.Eval(e.ctx, e.lrow, rrow); e.err != nil {
				return true
			}
			e.nest.add(member, value.Hash(member))
		} else if i >= 0 && e.rhashes != nil {
			e.nest.add(rrow, e.rhashes[i])
		} else {
			e.nest.add(rrow, value.Hash(rrow))
		}
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
		row, vals := e.to.Alloc()
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
