// Batch execution mode. The scalar operators in this package hand rows up
// one value.Value at a time, paying an environment binding and an
// interpreter dispatch per row; the vectorized operators below move batches:
// a columnar projection of an extent (col.Proj — each referenced attribute
// decoded once into a typed slice) plus a selection vector of row indices.
// Filters narrow the selection in place, joins probe flat hash tables of
// typed keys, and the buffers (selection vectors, key slices, hash tables)
// are reused across batches, so steady-state execution allocates near zero.
//
// The scalar operators remain the reference semantics: every vectorized
// fast path either reproduces the scalar result exactly or falls back to
// row-wise evaluation through the same interpreter (Mixed columns,
// untypeable keys), and the differential harness asserts scalar ≡
// vectorized on randomized queries.
package exec

import (
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

// VecOp is a batch-at-a-time operator. The method names are disjoint from
// Operator's so one struct can implement both deliberately, never by
// accident.
type VecOp interface {
	// OpenVec prepares the pipeline.
	OpenVec(ctx *Ctx) error
	// NextBatch returns the next batch; ok is false at end of stream.
	NextBatch() (b Batch, ok bool, err error)
	// CloseVec releases buffers. Idempotent.
	CloseVec() error
}

// ColumnarDB is the optional storage capability the batch scan prefers: a
// provider that serves snapshot-pinned columnar projections directly
// (storage.Store and storage.Snapshot implement it). Providers without it
// fall back to Table plus an in-executor decode.
type ColumnarDB interface {
	ColProj(extent string, attrs []string) (*col.Proj, error)
}

// SetCollector is implemented by operators that can materialize their whole
// result set in one step, cheaper than the generic Open/Next/Add loop.
// Collect uses it when present.
type SetCollector interface {
	Operator
	CollectSet(ctx *Ctx) (*value.Set, error)
}

// VecAdapter bridges a batch pipeline into the row-at-a-time Operator tree:
// as an Operator it drains batches and hands the underlying tuples up one
// at a time; as a SetCollector it materializes the whole result with a bulk
// set build. Project, when set, applies π over the named attributes during
// materialization (the batch pipeline itself never rewrites tuples).
type VecAdapter struct {
	Src     VecOp
	Project []string

	rowBuf
}

// Open drains the batch pipeline eagerly (results are bounded by the
// inputs, like the eager scalar joins).
func (a *VecAdapter) Open(ctx *Ctx) error {
	rows, err := a.drainVec(ctx)
	if err != nil {
		return err
	}
	a.out, a.pos = rows, 0
	return nil
}

// drainVec materializes the pipeline's rows, applying the projection.
func (a *VecAdapter) drainVec(ctx *Ctx) (_ []value.Value, err error) {
	if err := a.Src.OpenVec(ctx); err != nil {
		return nil, err
	}
	defer func() {
		if cerr := a.Src.CloseVec(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	rows := a.out[:0]
	for {
		b, ok, err := a.Src.NextBatch()
		if err != nil {
			return nil, err
		}
		if !ok {
			return rows, nil
		}
		for _, i := range b.Sel {
			row := b.Proj.Rows[i]
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

// Close releases the row buffer.
func (a *VecAdapter) Close() error { a.out = nil; return nil }

// CollectSet materializes the pipeline straight into a set with the bulk
// constructor — one hash pass, a handful of allocations, no per-row Add.
func (a *VecAdapter) CollectSet(ctx *Ctx) (*value.Set, error) {
	rows, err := a.drainVec(ctx)
	if err != nil {
		return nil, err
	}
	a.out = rows[:0] // keep the buffer for the next execution of this clone
	return value.NewSetFromSlice(rows), nil
}
