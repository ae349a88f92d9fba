package exec

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/eval"
)

// ProbeAttr is the attribute the join reads its left key off when it expands
// Unnest inside its probe, "" when it builds the unnested rows first.
func (j HashJoin) ProbeAttr() string { return j.probeAttr() }

// Tracker is the openHook of the lifecycle tests: it wraps every stream a run
// opens — after the row tally has had it, so counted streams are under watch
// too — and records how often each is closed. The wrapper keeps what the
// engine asks of a stream beyond Rows: a blocking stream stays blocking. It
// also counts the Close calls of the streams it watches, and can fail one of
// them.
type Tracker struct {
	tally *Tally

	mu      sync.Mutex
	streams []*opened
	// closes counts stream closes since the last FailClose; the failAt-th
	// (from 1; 0: none) returns closeErr.
	closes   int64
	failAt   int64
	closeErr error
}

// opened is one stream a run opened.
type opened struct {
	tracker *Tracker
	node    Operator
	kind    string // the stream's type without type arguments, e.g. "*exec.mapped"
	closed  int
}

// NewTracker returns a tracker that also tallies rows.
func NewTracker() *Tracker { return &Tracker{tally: &Tally{n: map[Operator]int64{}}} }

// Ctx returns a context over db whose runs the tracker watches.
func (t *Tracker) Ctx(db eval.DB) *Ctx { return &Ctx{DB: db, hook: t} }

func (t *Tracker) open(node Operator, stream Rows) *opened {
	kind, _, _ := strings.Cut(fmt.Sprintf("%T", stream), "[")
	o := &opened{tracker: t, node: node, kind: kind}
	t.mu.Lock()
	t.streams = append(t.streams, o)
	t.mu.Unlock()
	return o
}

// FailClose restarts the close count and makes the n-th Close from now on
// (0: none) return err once it has closed its stream.
func (t *Tracker) FailClose(n int64, err error) {
	t.mu.Lock()
	t.closes, t.failAt, t.closeErr = 0, n, err
	t.mu.Unlock()
}

// Closes reports the stream closes since the last FailClose.
func (t *Tracker) Closes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closes
}

// close counts one close of the stream, whose own result was err.
func (o *opened) close(err error) error {
	t := o.tracker
	t.mu.Lock()
	defer t.mu.Unlock()
	o.closed++
	if t.closes++; t.closes == t.failAt {
		return t.closeErr
	}
	return err
}

func (t *Tracker) rows(op Operator, r Rows) Rows {
	o := t.open(op, r)
	r = t.tally.rows(op, r)
	if b, ok := r.(blocking); ok {
		return &trackedBuf{blocking: b, o: o}
	}
	return &trackedRows{Rows: r, o: o}
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
)

func (s *trackedRows) Close() error { return s.o.close(s.Rows.Close()) }
func (s *trackedBuf) Close() error  { return s.o.close(s.blocking.Close()) }

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
