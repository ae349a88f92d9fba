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

	// segmentsUsed counts the build segments the last Open needed. It is
	// per-run state (unexported so CloneTree zeroes it per clone, caught by
	// the clonesafety analyzer); read it through Segments.
	segmentsUsed int

	rowBuf
}

// Segments reports how many build segments the last Open needed.
func (p *PNHL) Segments() int { return p.segmentsUsed }

// Open runs both phases eagerly.
func (p *PNHL) Open(ctx *Ctx) error {
	build, err := drain(p.R, ctx)
	if err != nil {
		return err
	}
	probe, err := drain(p.L, ctx)
	if err != nil {
		return err
	}
	segment := p.BudgetRows
	if segment <= 0 || segment > len(build) {
		segment = len(build)
	}
	if segment == 0 {
		segment = 1
	}

	// Partial results: per left tuple, the accumulating set of e ∘ y pairs.
	partial := make([]nestGroup, len(probe))

	p.segmentsUsed = 0
	for lo := 0; lo < len(build) || lo == 0; lo += segment {
		hi := lo + segment
		if hi > len(build) {
			hi = len(build)
		}
		if lo >= hi && lo > 0 {
			break
		}
		p.segmentsUsed++
		// Build phase: hash this segment of the flat table.
		seg := build[lo:hi]
		keys := make([]value.Value, len(seg))
		for i, brow := range seg {
			if keys[i], err = p.BuildKey.Eval(ctx, brow); err != nil {
				return err
			}
		}
		table := indexKeys(keys)
		// Probe phase: stream the nested operand against the segment.
		for pi, lrow := range probe {
			lt, err := asTuple(lrow, "PNHL")
			if err != nil {
				return err
			}
			av, ok := lt.Get(p.Attr)
			if !ok {
				return fmt.Errorf("exec: PNHL on missing attribute %q", p.Attr)
			}
			set, ok := av.(*value.Set)
			if !ok {
				return fmt.Errorf("exec: PNHL on non-set attribute %q", p.Attr)
			}
			for _, elem := range set.Elems() {
				et, ok := elem.(*value.Tuple)
				if !ok {
					return fmt.Errorf("exec: PNHL element of %q is not a tuple", p.Attr)
				}
				k, err := p.ElemKey.Eval(ctx, elem)
				if err != nil {
					return err
				}
				for bi := table.First(value.Hash(k)); bi >= 0; bi = table.Next(bi) {
					if !value.Equal(keys[bi], k) {
						continue
					}
					if p.Member != nil {
						m, err := p.Member.Eval(ctx, elem, seg[bi])
						if err != nil {
							return err
						}
						partial[pi].add(m)
						continue
					}
					bt, err := asTuple(seg[bi], "PNHL")
					if err != nil {
						return err
					}
					cat, err := et.Concat(bt)
					if err != nil {
						return err
					}
					partial[pi].add(cat)
				}
			}
		}
		if len(build) == 0 {
			break
		}
	}

	// Merge phase: replace the attribute with the accumulated join result.
	p.reset()
	for pi, lrow := range probe {
		lt := lrow.(*value.Tuple)
		p.out = append(p.out, lt.Except(value.NewTuple(p.Attr, partial[pi].set())))
	}
	return nil
}

// Close releases buffers.
func (p *PNHL) Close() error { p.out = nil; return nil }
