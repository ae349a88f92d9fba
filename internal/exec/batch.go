// Batch execution. The scalar operators in this package hand rows up one
// value.Value at a time, paying an environment binding and an interpreter
// dispatch per row; ColumnScan runs σ over an extent on flat arrays instead:
// a columnar projection of the extent (col.Proj — each referenced attribute
// decoded once into a typed slice) plus a selection vector of row indices.
// The typed kernels narrow one reused selection vector per DefaultBatchSize
// rows in place, so steady-state execution allocates near zero, and the
// surviving rows go up as an ordinary row stream — the joins included, one
// operator per algorithm whichever way their rows arrive. The planner runs σ
// over an extent as a ColumnScan or as an IndexScan, whichever it prices
// cheaper.
//
// Every typed kernel either reproduces the interpreter's result exactly or
// falls back to row-wise evaluation through the same interpreter (Mixed
// columns, kernel-less shapes), so a ColumnScan returns what a Filter over a
// Scan returns, errors included; the planner's differential tests check its
// plans against the reference interpreter on randomized queries.
package exec

import (
	"slices"

	"repro/internal/col"
	"repro/internal/value"
)

// DefaultBatchSize is the rows the kernels narrow at a time: one selection
// vector's length.
const DefaultBatchSize = 1024

// ColumnarDB is the optional storage capability ColumnScan prefers: a
// provider that serves snapshot-pinned columnar projections directly
// (storage.Store and storage.Snapshot implement it). Providers without it
// fall back to Table plus an in-executor decode.
type ColumnarDB interface {
	ColProj(extent string, attrs []string) (*col.Proj, error)
}

// ColumnScan is σ over an extent run on the extent's columnar projection:
// Kernels, the predicate's conjuncts in And order, narrow a selection vector
// batch by batch, and the rows left are the stream. Conjunct order matches the
// scalar And's left-to-right short-circuit, so rows are eliminated in the
// same order as a Filter's; a failing batch is rerun row by row, so the error
// is the one a Filter meets first.
type ColumnScan struct {
	Extent string
	// Attrs are the attributes the kernels read columnar.
	Attrs   []string
	Var     string
	Kernels []VecCmp
	// Workers > 1 splits the projection into that many contiguous shares of
	// whole batches, one goroutine each; the rows, their order and the error
	// are still the serial run's.
	Workers int
}

// Open computes the rows: the stream is blocking, like the joins'.
func (s ColumnScan) Open(ctx *Ctx) (Rows, error) {
	ks, err := withArgs(s.Kernels, ctx.Args)
	if err != nil {
		return nil, err
	}
	s.Kernels = ks
	proj, err := s.projection(ctx)
	if err != nil {
		return nil, err
	}
	n := proj.Len()
	batches := (n + DefaultBatchSize - 1) / DefaultBatchSize
	shares, err := inShares(batches, s.Workers, func(lo, hi int) (out *rowBuf, err error) {
		var sel [DefaultBatchSize]int32 // on the stack: batch keeps none of it
		out = new(rowBuf)
		for b := lo; b < hi; b++ {
			first := b * DefaultBatchSize
			if out.out, err = s.batch(ctx, proj, first, min(n, first+DefaultBatchSize), sel[:], out.out); err != nil {
				return nil, err
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return joined(shares)
}

// projection obtains the projection of the extent's Attrs.
func (s ColumnScan) projection(ctx *Ctx) (*col.Proj, error) {
	if cdb, ok := ctx.DB.(ColumnarDB); ok {
		return cdb.ColProj(s.Extent, s.Attrs)
	}
	set, err := ctx.DB.Table(s.Extent)
	if err != nil {
		return nil, err
	}
	return col.New(s.Extent, set.Elems(), s.Attrs), nil
}

// batch narrows rows [lo, hi) of p through the kernels, in buf, and appends
// the survivors to out.
func (s ColumnScan) batch(ctx *Ctx, p *col.Proj, lo, hi int, buf []int32, out []value.Value) ([]value.Value, error) {
	sel := buf[:hi-lo]
	for i := range sel {
		sel[i] = int32(lo + i)
	}
	for ki := 0; ki < len(s.Kernels) && len(sel) > 0; ki++ {
		var err error
		if sel, err = s.Kernels[ki].apply(ctx, p, sel); err != nil {
			return nil, s.firstError(ctx, p, lo, hi, err)
		}
	}
	out = slices.Grow(out, len(sel))
	for _, i := range sel {
		out = append(out, p.Row(i))
	}
	return out, nil
}

// firstError is the error a Filter meets first in rows [lo, hi) of p, where
// a kernel failed with err. A kernel runs over the whole batch before the
// next one does, so err may be a later row's; the batch runs again row by
// row, each row through the kernels' Preds in And order.
func (s ColumnScan) firstError(ctx *Ctx, p *col.Proj, lo, hi int, err error) error {
	for i := lo; i < hi; i++ {
		for k := range s.Kernels {
			keep, rerr := s.Kernels[k].Pred.Bool(ctx, p.Row(int32(i)))
			if rerr != nil {
				return rerr
			}
			if !keep {
				break
			}
		}
	}
	return err
}
