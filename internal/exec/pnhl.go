package exec

import (
	"fmt"

	"repro/internal/value"
)

// PNHL implements the Partitioned Nested-Hashed-Loops algorithm of [DeLa92]
// (§6.2) for the nested natural join of a set-valued attribute with a base
// table:
//
//	σ-free form:  α[z : z except (attr = z.attr ⋈(e,y : key(e)=key(y)) R)](L)
//
// Each left tuple's set-valued attribute is joined element-wise with the
// flat build table R; the matching pairs e ∘ y replace the attribute. Unlike
// a relational hash join, only the flat table can be the build input: the
// algorithm builds a hash table for those segments of R that fit into main
// memory (BudgetRows rows per segment) and probes the left operand against
// each segment, producing partial results that are merged — per left tuple —
// in the second phase.
//
// Compared to the unnest–join–nest alternative, PNHL never restructures: the
// nested representation flows through unchanged, dangling elements and empty
// sets survive, and the left operand is scanned once per segment rather than
// being unnested and regrouped.
type PNHL struct {
	L Operator // operand with the set-valued attribute (probe side)
	R Operator // flat build table
	// Attr is the set-valued attribute of left tuples; its elements must be
	// tuples.
	Attr string
	// ElemKey computes the join key of an attribute element.
	ElemKey Scalar
	// BuildKey computes the join key of a build-table row.
	BuildKey Scalar
	// BudgetRows is the memory budget: build rows hashed per segment. Zero
	// means unlimited (single segment).
	BudgetRows int
	// Member, if non-nil, computes the joined member from (element, build
	// row) instead of the default concatenation — e.g. the build row alone,
	// which turns PNHL into reference materialization.
	Member *Scalar
}

// Segments is how many build segments PNHL hashes for a build table of
// buildRows rows under a budget of budgetRows rows per segment: one when the
// budget is unlimited (zero) or covers the table, which may be empty.
func Segments(buildRows, budgetRows int) int {
	if budgetRows <= 0 || budgetRows >= buildRows {
		return 1
	}
	return (buildRows + budgetRows - 1) / budgetRows
}

// segment returns the bounds of build segment i of the Segments.
func segment(i, buildRows, budgetRows int) (lo, hi int) {
	if budgetRows <= 0 {
		return 0, buildRows
	}
	return i * budgetRows, min((i+1)*budgetRows, buildRows)
}

// Open runs both phases eagerly. Whatever the number of segments, each
// element's key is evaluated once and each build key once: a segment is
// the joinTable HashJoin builds, over its contiguous slice of the build rows.
func (p PNHL) Open(ctx *Ctx) (Rows, error) {
	build, err := drain(p.R, ctx)
	if err != nil {
		return nil, err
	}
	probe, err := drain(p.L, ctx)
	if err != nil {
		return nil, err
	}

	// The probe side: each row's tuple and set-valued attribute, and the key
	// of every element — a v.attr key read straight off the element
	// (keyAttr) — row after row.
	tuples := make([]*value.Tuple, len(probe))
	sets := make([]*value.Set, len(probe))
	var ekeys []value.Value
	fattr := keyAttr(p.ElemKey, Scalar{})
	for pi, lrow := range probe {
		lt, err := asTuple(lrow, "PNHL")
		if err != nil {
			return nil, err
		}
		av, ok := lt.Get(p.Attr)
		if !ok {
			return nil, fmt.Errorf("exec: PNHL on missing attribute %q", p.Attr)
		}
		set, ok := av.(*value.Set)
		if !ok {
			return nil, fmt.Errorf("exec: PNHL on non-set attribute %q", p.Attr)
		}
		for _, elem := range set.Elems() {
			et, ok := elem.(*value.Tuple)
			if !ok {
				return nil, fmt.Errorf("exec: PNHL element of %q is not a tuple", p.Attr)
			}
			k, ok := et.Get(fattr)
			if fattr == "" || !ok {
				if k, err = p.ElemKey.Eval(ctx, elem); err != nil {
					return nil, err
				}
			}
			ekeys = append(ekeys, k)
		}
		tuples[pi], sets[pi] = lt, set
	}

	// Partial results: per left tuple, the accumulating set of e ∘ y pairs.
	partial := make([]nestGroup, len(probe))
	for i := 0; i < Segments(len(build), p.BudgetRows); i++ {
		// Build phase: a table over this segment of the flat table.
		lo, hi := segment(i, len(build), p.BudgetRows)
		seg, err := newJoinTable(ctx, build[lo:hi], p.BuildKey)
		if err != nil {
			return nil, err
		}
		// Probe phase: every element's key against the segment.
		e := 0
		for pi, set := range sets {
			for _, elem := range set.Elems() {
				for bi := seg.find(ekeys[e]); bi >= 0; bi = seg.next(bi) {
					m, err := p.member(ctx, elem, seg.rows[bi])
					if err != nil {
						return nil, err
					}
					partial[pi].add(m, value.Hash(m))
				}
				e++
			}
		}
	}

	// Merge phase: replace the attribute with the accumulated join result.
	out := make([]value.Value, len(tuples))
	for pi, lt := range tuples {
		out[pi] = lt.Except(value.NewTuple(p.Attr, partial[pi].set()))
	}
	return buffered(out)
}

// member is what a matching (element, build row) pair contributes: Member's
// value, or the concatenation of the two tuples.
func (p PNHL) member(ctx *Ctx, elem, brow value.Value) (value.Value, error) {
	if p.Member != nil {
		return p.Member.Eval(ctx, elem, brow)
	}
	bt, err := asTuple(brow, "PNHL")
	if err != nil {
		return nil, err
	}
	cat, err := elem.(*value.Tuple).Concat(bt)
	if err != nil {
		return nil, err
	}
	return cat, nil
}
