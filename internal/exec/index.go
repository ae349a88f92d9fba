// Index access paths: physical operators that read base extents through
// secondary indexes instead of full scans. IndexScan is the leaf — an
// equality or range probe with constant bounds — and IndexNLJoin is the
// index-nested-loop join: the outer operand streams and every row probes the
// inner extent's index, the classic Selinger-era alternative the cost model
// weighs against the hash joins and the nested loop.
package exec

import (
	"fmt"

	"repro/internal/adl"
	"repro/internal/value"
)

// IndexedDB is the optional store capability the index operators require:
// secondary-index probes by equality and by range. storage.Store implements
// it; plans containing index operators fail to Open against databases that
// do not.
type IndexedDB interface {
	// IndexLookup returns the extent's objects whose indexed attribute
	// equals key.
	IndexLookup(extent, attr string, key value.Value) ([]value.Value, error)
	// IndexExists reports whether IndexLookup would return an object; it
	// reads none past the first it finds.
	IndexExists(extent, attr string, key value.Value) (bool, error)
	// IndexRange returns the objects whose indexed attribute falls within
	// [lo, hi]; a nil bound is unbounded, the Incl flags select closed ends.
	// It requires an ordered index.
	IndexRange(extent, attr string, lo, hi value.Value, loIncl, hiIncl bool) ([]value.Value, error)
}

// indexedDB asserts the context's database supports index probes.
func indexedDB(ctx *Ctx, op string) (IndexedDB, error) {
	idb, ok := ctx.DB.(IndexedDB)
	if !ok {
		return nil, fmt.Errorf("exec: %s requires an index-capable store, got %T", op, ctx.DB)
	}
	return idb, nil
}

// IndexScan reads one extent through a secondary index on Attr: either the
// equality probe Eq (any index kind) or the range [Lo, Hi] (ordered indexes
// only). The bound scalars are constants — they close over no operator row —
// and are evaluated once at Open against the plan's outer environment and the
// run's arguments.
type IndexScan struct {
	Table, Attr string
	// Eq is the equality key; nil selects the range form.
	Eq *Scalar
	// Lo and Hi are the optional range bounds (nil = unbounded).
	Lo, Hi         *Scalar
	LoIncl, HiIncl bool
}

// Open evaluates the bounds and runs the probe.
func (s IndexScan) Open(ctx *Ctx) (Rows, error) {
	idb, err := indexedDB(ctx, "index scan")
	if err != nil {
		return nil, err
	}
	bound := func(b *Scalar) (value.Value, error) {
		if b == nil {
			return nil, nil
		}
		return b.Eval(ctx)
	}
	if s.Eq != nil {
		key, err := s.Eq.Eval(ctx)
		if err != nil {
			return nil, err
		}
		rows, err := idb.IndexLookup(s.Table, s.Attr, key)
		if err != nil {
			return nil, err
		}
		return buffered(rows)
	}
	lo, err := bound(s.Lo)
	if err != nil {
		return nil, err
	}
	hi, err := bound(s.Hi)
	if err != nil {
		return nil, err
	}
	rows, err := idb.IndexRange(s.Table, s.Attr, lo, hi, s.LoIncl, s.HiIncl)
	if err != nil {
		return nil, err
	}
	return buffered(rows)
}

// IndexNLJoin is the index-nested-loop join: the outer operand L streams,
// and each outer row's key LKey probes the secondary index on Table.Attr —
// the unfiltered inner extent — in place of building a hash table over a
// full inner scan. An optional Residual (the remaining join conjuncts)
// filters the candidate matches. The planner emits it only when the inner
// side of the logical join is the bare extent, so the index, which covers
// every object of the extent, cannot resurrect rows a pushed-down selection
// should have removed. Kinds: inner, semi, anti, and nestjoin (outer joins
// need the inner schema for null padding, which an index probe cannot
// provide without a scan).
type IndexNLJoin struct {
	Kind adl.JoinKind
	L    Operator
	// Table and Attr name the inner extent and its indexed attribute.
	Table, Attr string
	LVar, RVar  string
	// LKey computes the probe key from an outer row.
	LKey Scalar
	// Residual is the conjunction of the remaining join conjuncts, over
	// (LVar, RVar).
	Residual *Scalar
	As       string
	RFun     *Scalar
	// Sel is NLJoin.Sel.
	Sel *Scalar
}

// Open drains the outer side and probes per row. A semi- or antijoin without
// a residual asks only whether the key has an object (IndexExists): its
// verdict needs no more than the first.
func (j IndexNLJoin) Open(ctx *Ctx) (Rows, error) {
	idb, err := indexedDB(ctx, "index-nested-loop join")
	if err != nil {
		return nil, err
	}
	if j.Kind == adl.Outer {
		return nil, fmt.Errorf("exec: index-nested-loop join does not support kind %v", j.Kind)
	}
	lrows, err := drain(j.L, ctx)
	if err != nil {
		return nil, err
	}
	em := newJoinEmit(ctx, j.Kind, "index join", j.Residual, j.RFun, j.Sel, j.As, nil)
	em.reserve(len(lrows))
	exists := j.Residual == nil && (j.Kind == adl.Semi || j.Kind == adl.Anti)
	for _, lrow := range lrows {
		if err := em.begin(lrow); err != nil {
			return nil, err
		}
		lk, err := j.LKey.Eval(ctx, lrow)
		if err != nil {
			return nil, err
		}
		if exists {
			if em.matched, err = idb.IndexExists(j.Table, j.Attr, lk); err != nil {
				return nil, err
			}
		} else {
			matches, err := idb.IndexLookup(j.Table, j.Attr, lk)
			if err != nil {
				return nil, err
			}
			for _, rrow := range matches {
				if em.match(rrow) {
					break
				}
			}
		}
		if err := em.end(); err != nil {
			return nil, err
		}
	}
	return em.result(), nil
}
