// Batch execution mode. The scalar operators in this package hand rows up
// one value.Value at a time, paying an environment binding and an
// interpreter dispatch per row; the batch layer moves batches: a columnar
// projection of an extent (col.Proj — each referenced attribute decoded once
// into a typed slice) plus a selection vector of row indices. It is four
// operators, VecScan → VecFilter → VecExchange → VecAdapter: filters narrow
// the selection in place and reuse it across batches, so steady-state
// execution allocates near zero, and the adapter hands the surviving rows to
// the row operators above — the joins included, one operator per algorithm
// whichever way their rows arrive.
//
// The scalar operators remain the reference semantics: every typed kernel
// either reproduces the scalar result exactly or falls back to row-wise
// evaluation through the same interpreter (Mixed columns, kernel-less
// shapes), and the differential harness asserts scalar ≡ vectorized on
// randomized queries.
package exec

import (
	"slices"

	"repro/internal/col"
	"repro/internal/value"
)

// DefaultBatchSize is the fallback batch size when an operator was built
// without one; the planner normally derives it from plan.Config.
const DefaultBatchSize = 1024

// Batch is a view over a columnar projection: Sel lists the visible row
// indices, in order. A batch is only valid until the producer's next
// NextBatch call — consumers must not retain Sel.
type Batch struct {
	Proj *col.Proj
	Sel  []int32
}

// VecOp is a node of a batch pipeline — the Operator contract over batches:
// immutable configuration whose OpenVec, on the value receiver, returns the
// run's state as a stream of its own.
type VecOp interface {
	// OpenVec starts a run of the pipeline and returns its batches.
	OpenVec(ctx *Ctx) (Batches, error)
}

// Batches is the batch stream of one run of a VecOp, used by one goroutine.
type Batches interface {
	// NextBatch returns the next batch; ok is false at end of stream.
	NextBatch() (b Batch, ok bool, err error)
	// CloseVec releases buffers and the streams below. Idempotent.
	CloseVec() error
}

// ColumnarDB is the optional storage capability the batch scan prefers: a
// provider that serves snapshot-pinned columnar projections directly
// (storage.Store and storage.Snapshot implement it). Providers without it
// fall back to Table plus an in-executor decode.
type ColumnarDB interface {
	ColProj(extent string, attrs []string) (*col.Proj, error)
}

// VecAdapter bridges a batch pipeline into the row-at-a-time Operator tree:
// it drains the batches eagerly (results are bounded by the inputs, like the
// eager scalar joins) and hands the underlying tuples up as a blocking
// stream. Project, when set, applies π over the named attributes during
// materialization (the batch pipeline itself never rewrites tuples).
type VecAdapter struct {
	Src     VecOp
	Project []string
}

// Open materializes the pipeline's rows, applying the projection.
func (a VecAdapter) Open(ctx *Ctx) (_ Rows, err error) {
	src, err := ctx.openVec(a.Src)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := src.CloseVec(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	var rows []value.Value
	for {
		b, ok, err := src.NextBatch()
		if err != nil {
			return nil, err
		}
		if !ok {
			return buffered(rows)
		}
		rows = slices.Grow(rows, len(b.Sel))
		for _, i := range b.Sel {
			row := b.Proj.Row(i)
			if a.Project != nil {
				t, err := asTuple(row, "π")
				if err != nil {
					return nil, err
				}
				if row, err = t.Subscript(a.Project); err != nil {
					return nil, err
				}
			}
			rows = append(rows, row)
		}
	}
}
