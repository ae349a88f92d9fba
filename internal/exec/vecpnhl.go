package exec

import (
	"fmt"

	"repro/internal/adl"
	"repro/internal/col"
	"repro/internal/value"
)

// VecPNHL is the batch-native Partitioned Nested-Hashed-Loops join: the
// same two-phase, budget-segmented algorithm as the scalar PNHL ([DeLa92]
// §6.2), with the probe side streaming in as columnar batches and each
// build segment indexed through the typed flat keyTable instead of a boxed
// hash map. Set-valued probe attributes come straight off the typed Set
// column when present, element keys are evaluated once and reused across
// segments, and v.attr-shaped keys skip the interpreter entirely.
type VecPNHL struct {
	L VecOp    // operand with the set-valued attribute (probe side)
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
	// row) instead of the default concatenation.
	Member *Scalar
}

// Open runs both phases eagerly.
func (p VecPNHL) Open(ctx *Ctx) (_ Rows, err error) {
	build, err := drain(p.R, ctx)
	if err != nil {
		return nil, err
	}

	// Drain the probe pipeline, keeping each row's tuple and set attribute.
	var (
		tuples []*value.Tuple
		sets   []*value.Set
	)
	left, err := ctx.openVec(p.L)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := left.CloseVec(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	for {
		b, ok, nerr := left.NextBatch()
		if nerr != nil {
			return nil, nerr
		}
		if !ok {
			break
		}
		c := b.Proj.Col(p.Attr)
		for _, i := range b.Sel {
			lt, terr := asTuple(b.Proj.Rows[i], "PNHL")
			if terr != nil {
				return nil, terr
			}
			var as *value.Set
			if c != nil && c.Kind == col.Set {
				as = c.Sets[i]
			} else {
				av, ok := lt.Get(p.Attr)
				if !ok {
					return nil, fmt.Errorf("exec: PNHL on missing attribute %q", p.Attr)
				}
				if as, ok = av.(*value.Set); !ok {
					return nil, fmt.Errorf("exec: PNHL on non-set attribute %q", p.Attr)
				}
			}
			tuples = append(tuples, lt)
			sets = append(sets, as)
		}
	}

	// Evaluate element keys once per (row, element); the scalar PNHL
	// re-evaluates them per segment, which is identical for pure keys.
	fattr := fieldKeyAttr(p.ElemKey)
	elemKeys := make([][]value.Value, len(sets))
	for pi, as := range sets {
		ks := make([]value.Value, as.Len())
		for ei, elem := range as.Elems() {
			et, ok := elem.(*value.Tuple)
			if !ok {
				return nil, fmt.Errorf("exec: PNHL element of %q is not a tuple", p.Attr)
			}
			if fattr != "" {
				if k, ok := et.Get(fattr); ok {
					ks[ei] = k
					continue
				}
			}
			k, kerr := p.ElemKey.Eval(ctx, elem)
			if kerr != nil {
				return nil, kerr
			}
			ks[ei] = k
		}
		elemKeys[pi] = ks
	}

	// Evaluate every build key once; segments slice into this.
	bkeys, err := buildKeys(ctx, build, p.BuildKey, 1)
	if err != nil {
		return nil, err
	}

	partial := make([]nestGroup, len(tuples))

	for i := 0; i < Segments(len(build), p.BudgetRows); i++ {
		// Build phase: a typed flat table over this segment's keys.
		lo, hi := segment(i, len(build), p.BudgetRows)
		seg := keyTable{keys: bkeys[lo:hi]}
		seg.index()
		// Probe phase: each element's precomputed key against the segment.
		for pi := range tuples {
			for ei, elem := range sets[pi].Elems() {
				var ferr error
				seg.forEach(elemKeys[pi][ei], func(li int) bool {
					var m value.Value
					if p.Member != nil {
						m, ferr = p.Member.Eval(ctx, elem, build[lo+li])
					} else {
						var brow *value.Tuple
						if brow, ferr = asTuple(build[lo+li], "PNHL"); ferr == nil {
							m, ferr = elem.(*value.Tuple).Concat(brow)
						}
					}
					if ferr == nil {
						partial[pi].add(m)
					}
					return ferr != nil
				})
				if ferr != nil {
					return nil, ferr
				}
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

// fieldKeyAttr returns the attribute a v.attr-shaped key scalar reads, or
// "" when the key has another shape.
func fieldKeyAttr(key Scalar) string {
	f, ok := key.Expr.(*adl.Field)
	if !ok || len(key.Vars) != 1 {
		return ""
	}
	v, ok := f.X.(*adl.Var)
	if !ok || v.Name != key.Vars[0] {
		return ""
	}
	return f.Name
}
