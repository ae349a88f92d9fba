package exec

import (
	"sort"

	"repro/internal/adl"
	"repro/internal/value"
)

// SortMergeJoin is the sort-merge implementation of the inner join and the
// nestjoin on a single equi-key (the paper names the sort-merge join as a
// nestjoin implementation candidate in §6.1). Both inputs are materialized,
// sorted by key under the canonical value order, and merged; for the
// nestjoin, each left key group is paired with the matching right group
// (dangling left tuples get the empty set).
type SortMergeJoin struct {
	Kind       adl.JoinKind // Inner or NestJ
	L, R       Operator
	LVar, RVar string
	LKey, RKey Scalar
	As         string
	RFun       *Scalar

	rowBuf
}

type keyedRow struct {
	key value.Value
	row value.Value
}

func sortByKey(ctx *Ctx, op Operator, key Scalar) ([]keyedRow, error) {
	rows, err := drain(op, ctx)
	if err != nil {
		return nil, err
	}
	out := make([]keyedRow, len(rows))
	for i, r := range rows {
		k, err := key.Eval(ctx, r)
		if err != nil {
			return nil, err
		}
		out[i] = keyedRow{key: k, row: r}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return value.Compare(out[i].key, out[j].key) < 0
	})
	return out, nil
}

// Open sorts and merges.
func (j *SortMergeJoin) Open(ctx *Ctx) error {
	ls, err := sortByKey(ctx, j.L, j.LKey)
	if err != nil {
		return err
	}
	rs, err := sortByKey(ctx, j.R, j.RKey)
	if err != nil {
		return err
	}
	j.reset()
	ri := 0
	for li := 0; li < len(ls); {
		lkey := ls[li].key
		// Advance the right side to the first key ≥ lkey.
		for ri < len(rs) && value.Compare(rs[ri].key, lkey) < 0 {
			ri++
		}
		// Collect the right group with equal keys.
		re := ri
		for re < len(rs) && value.Compare(rs[re].key, lkey) == 0 {
			re++
		}
		// Emit for every left row in this key group.
		le := li
		for le < len(ls) && value.Compare(ls[le].key, lkey) == 0 {
			lt, err := asTuple(ls[le].row, "sort-merge join")
			if err != nil {
				return err
			}
			switch j.Kind {
			case adl.Inner:
				for k := ri; k < re; k++ {
					rt, err := asTuple(rs[k].row, "sort-merge join")
					if err != nil {
						return err
					}
					cat, err := lt.Concat(rt)
					if err != nil {
						return err
					}
					j.out = append(j.out, cat)
				}
			case adl.NestJ:
				var nest nestGroup
				for k := ri; k < re; k++ {
					member := rs[k].row
					if j.RFun != nil {
						member, err = j.RFun.Eval(ctx, ls[le].row, rs[k].row)
						if err != nil {
							return err
						}
					}
					nest.add(member)
				}
				j.out = append(j.out, lt.With(j.As, nest.set()))
			}
			le++
		}
		li = le
	}
	return nil
}

// Close releases buffers.
func (j *SortMergeJoin) Close() error { j.out = nil; return nil }
