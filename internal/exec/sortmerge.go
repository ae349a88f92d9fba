package exec

import (
	"fmt"
	"sort"

	"repro/internal/adl"
	"repro/internal/value"
)

// SortMergeJoin is the sort-merge implementation of the join on a single
// equi-key (the paper names the sort-merge join as a nestjoin implementation
// candidate in §6.1). Both inputs are materialized, sorted by key under the
// canonical value order, and merged: each left key group is paired with the
// matching right group (for the nestjoin, dangling left tuples get the empty
// set). The planner picks it for the inner join and the nestjoin; the outer
// join is rejected (the merge keeps no right row to take the null schema
// from).
type SortMergeJoin struct {
	Kind       adl.JoinKind
	L, R       Operator
	LVar, RVar string
	LKey, RKey Scalar
	As         string
	RFun       *Scalar
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
func (j SortMergeJoin) Open(ctx *Ctx) (Rows, error) {
	if j.Kind == adl.Outer {
		return nil, fmt.Errorf("exec: sort-merge join does not support kind %v", j.Kind)
	}
	ls, err := sortByKey(ctx, j.L, j.LKey)
	if err != nil {
		return nil, err
	}
	rs, err := sortByKey(ctx, j.R, j.RKey)
	if err != nil {
		return nil, err
	}
	em := newJoinEmit(ctx, j.Kind, "sort-merge join", nil, j.RFun, j.As, nil)
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
		for ; li < len(ls) && value.Compare(ls[li].key, lkey) == 0; li++ {
			if err := em.begin(ls[li].row); err != nil {
				return nil, err
			}
			for k := ri; k < re; k++ {
				if em.match(rs[k].row) {
					break
				}
			}
			if err := em.end(); err != nil {
				return nil, err
			}
		}
	}
	return buffered(em.out)
}
