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

// Segments is how many build segments PNHL and VecPNHL hash for a build
// table of buildRows rows under a budget of budgetRows rows per segment: one
// when the budget is unlimited (zero) or covers the table, which may be empty.
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

// Open runs both phases eagerly.
func (p PNHL) Open(ctx *Ctx) (Rows, error) {
	build, err := drain(p.R, ctx)
	if err != nil {
		return nil, err
	}
	probe, err := drain(p.L, ctx)
	if err != nil {
		return nil, err
	}

	// Partial results: per left tuple, the accumulating set of e ∘ y pairs.
	partial := make([]nestGroup, len(probe))

	for i := 0; i < Segments(len(build), p.BudgetRows); i++ {
		// Build phase: hash this segment of the flat table.
		lo, hi := segment(i, len(build), p.BudgetRows)
		seg := build[lo:hi]
		keys := make([]value.Value, len(seg))
		for i, brow := range seg {
			if keys[i], err = p.BuildKey.Eval(ctx, brow); err != nil {
				return nil, err
			}
		}
		table := indexKeys(keys)
		// Probe phase: stream the nested operand against the segment.
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
				k, err := p.ElemKey.Eval(ctx, elem)
				if err != nil {
					return nil, err
				}
				for bi := table.First(value.Hash(k)); bi >= 0; bi = table.Next(bi) {
					if !value.Equal(keys[bi], k) {
						continue
					}
					if p.Member != nil {
						m, err := p.Member.Eval(ctx, elem, seg[bi])
						if err != nil {
							return nil, err
						}
						partial[pi].add(m)
						continue
					}
					bt, err := asTuple(seg[bi], "PNHL")
					if err != nil {
						return nil, err
					}
					cat, err := et.Concat(bt)
					if err != nil {
						return nil, err
					}
					partial[pi].add(cat)
				}
			}
		}
	}

	// Merge phase: replace the attribute with the accumulated join result.
	out := make([]value.Value, len(probe))
	for pi, lrow := range probe {
		lt := lrow.(*value.Tuple)
		out[pi] = lt.Except(value.NewTuple(p.Attr, partial[pi].set()))
	}
	return buffered(out)
}
