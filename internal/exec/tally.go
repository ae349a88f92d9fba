package exec

import (
	"sync"

	"repro/internal/value"
)

// Tally is the rows each node of a plan emitted in one instrumented run. The
// planner's cardinality estimates are predictions; the tally is the ground
// truth a serving layer compares them against after the run (runtime
// feedback: evict and re-plan cached plans whose estimates have drifted). It
// is keyed by the plan's own nodes — the keys a plan's estimate table uses —
// so estimates and actuals line up without bookkeeping in the caller.
type Tally struct {
	mu sync.Mutex
	n  map[Operator]int64
}

// Instrument returns a node that runs op with a fresh tally installed and
// that tally, complete once the node's stream is closed. op is not touched:
// rows are counted where a run opens each child (Ctx.open), so there is no
// copy of the tree.
func Instrument(op Operator) (Operator, *Tally) {
	t := &Tally{n: map[Operator]int64{}}
	return tallied{Root: op, Tally: t}, t
}

// Rows returns the count per node. Read it after the run.
func (t *Tally) Rows() map[Operator]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

func (t *Tally) add(op Operator, n int64) {
	t.mu.Lock()
	t.n[op] += n
	t.mu.Unlock()
}

// rows counts a blocking stream once, whole, and hands it up as it is, so
// Collect and drain still take its buffer; a streaming one is counted per row.
func (t *Tally) rows(op Operator, r Rows) Rows {
	if b, ok := r.(blocking); ok {
		t.add(op, int64(len(b.buf().rest())))
		return r
	}
	return &counted{Rows: r, op: op, tally: t}
}

// tallied is the root Instrument puts over a plan.
type tallied struct {
	Root  Operator
	Tally *Tally
}

// Open runs the plan under a context that counts into the tally.
func (t tallied) Open(ctx *Ctx) (Rows, error) {
	c := *ctx
	c.hook = t.Tally
	return c.open(t.Root)
}

// counted counts the rows of a streaming operator on their way up and adds
// them to the tally when the stream is closed.
type counted struct {
	Rows
	op    Operator
	tally *Tally
	n     int64
}

func (c *counted) Next() (value.Value, bool, error) {
	row, ok, err := c.Rows.Next()
	if ok && err == nil {
		c.n++
	}
	return row, ok, err
}

// size is the counted stream's: counting drops no row.
func (c *counted) size() int { return size(c.Rows) }

func (c *counted) Close() error {
	c.tally.add(c.op, c.n)
	c.n = 0
	return c.Rows.Close()
}
