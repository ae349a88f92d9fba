package exec

import (
	"sync/atomic"

	"repro/internal/value"
)

// Counted wraps an operator and tallies the rows it emits. The planner's
// cardinality estimates are predictions; the tallies are the ground truth a
// serving layer can compare them against after a run (runtime feedback:
// evict and re-plan cached plans whose estimates have drifted). The counter
// is held by pointer so the caller keeps reading it after handing the tree
// off, and so a CloneTree copy feeds the same tally as its original.
type Counted struct {
	Child Operator
	N     *atomic.Int64
}

func (c *Counted) Open(ctx *Ctx) error { return c.Child.Open(ctx) }

func (c *Counted) Next() (value.Value, bool, error) {
	row, ok, err := c.Child.Next()
	if ok && err == nil {
		c.N.Add(1)
	}
	return row, ok, err
}

func (c *Counted) Close() error { return c.Child.Close() }

// buffered forwards a blocking child's row count to Collect.
func (c *Counted) buffered() int {
	if b, ok := c.Child.(blocking); ok {
		return b.buffered()
	}
	return 0
}

// Instrument mirrors an operator tree with every node wrapped in a Counted
// and returns the instrumented root plus the tallies keyed by the ORIGINAL
// tree's nodes — the same keys a plan's estimate table uses, so estimates
// and actuals line up without any bookkeeping in the caller. The original
// tree is not modified and remains the one to Explain; the mirror is the
// CloneTree walk with a different image for Operator children (batch
// operators have no row stream to count and are plainly copied), so it is
// itself a fresh runnable clone: instrument once per execution and the
// tallies are exact per-run counts.
func Instrument(op Operator) (Operator, map[Operator]*atomic.Int64) {
	tallies := map[Operator]*atomic.Int64{}
	var counted func(Operator) Operator
	counted = func(op Operator) Operator {
		if op == nil {
			return nil
		}
		n := &atomic.Int64{}
		tallies[op] = n
		return &Counted{Child: mirror(op, counted).(Operator), N: n}
	}
	return counted(op), tallies
}
