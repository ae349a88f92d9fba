package exec

import (
	"fmt"
	"sync"

	"repro/internal/eval"
)

// Tracker is the openHook of the lifecycle tests: it wraps every stream a run
// opens — after the row tally has had it, so counted streams are under watch
// too — and records how often each is closed. The wrappers keep what the
// engine asks of a stream beyond Rows and Batches: a blocking stream stays
// blocking, a scan's stream keeps its projection.
type Tracker struct {
	tally *Tally

	mu      sync.Mutex
	streams []*opened
}

// opened is one stream a run opened.
type opened struct {
	tracker *Tracker
	node    any    // the Operator or VecOp
	kind    string // the stream's type, e.g. "*exec.mapped"
	closed  int
}

// NewTracker returns a tracker that also tallies rows.
func NewTracker() *Tracker { return &Tracker{tally: &Tally{n: map[Operator]int64{}}} }

// Ctx returns a context over db whose runs the tracker watches.
func (t *Tracker) Ctx(db eval.DB) *Ctx { return &Ctx{DB: db, hook: t} }

func (t *Tracker) open(node, stream any) *opened {
	o := &opened{tracker: t, node: node, kind: fmt.Sprintf("%T", stream)}
	t.mu.Lock()
	t.streams = append(t.streams, o)
	t.mu.Unlock()
	return o
}

func (o *opened) close() {
	o.tracker.mu.Lock()
	o.closed++
	o.tracker.mu.Unlock()
}

func (t *Tracker) rows(op Operator, r Rows) Rows {
	o := t.open(op, r)
	r = t.tally.rows(op, r)
	if b, ok := r.(blocking); ok {
		return &trackedBuf{blocking: b, o: o}
	}
	return &trackedRows{Rows: r, o: o}
}

func (t *Tracker) batches(op VecOp, b Batches) Batches {
	if p, ok := b.(projected); ok {
		return &trackedScan{projected: p, o: t.open(op, b)}
	}
	return &trackedBatches{Batches: b, o: t.open(op, b)}
}

type (
	trackedRows struct {
		Rows
		o *opened
	}
	trackedBuf struct {
		blocking
		o *opened
	}
	trackedBatches struct {
		Batches
		o *opened
	}
	trackedScan struct {
		projected
		o *opened
	}
)

func (s *trackedRows) Close() error       { s.o.close(); return s.Rows.Close() }
func (s *trackedBuf) Close() error        { s.o.close(); return s.blocking.Close() }
func (s *trackedBatches) CloseVec() error { s.o.close(); return s.Batches.CloseVec() }
func (s *trackedScan) CloseVec() error    { s.o.close(); return s.projected.CloseVec() }

// Check reports every stream opened since the last Check that was not closed
// exactly once, forgets them, and returns the stream types it saw (a stream a
// Let hands through from its child shows as the wrapper it came in).
func (t *Tracker) Check() (kinds map[string]bool, problems []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kinds = map[string]bool{}
	for _, o := range t.streams {
		kinds[o.kind] = true
		if o.closed != 1 {
			problems = append(problems, fmt.Sprintf("%s of %T closed %d times", o.kind, o.node, o.closed))
		}
	}
	t.streams = nil
	return kinds, problems
}
