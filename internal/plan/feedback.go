// Runtime cardinality feedback. The optimizer's estimates are predictions;
// execution produces the ground truth. A plan hands out instrumented roots
// (exec.Instrument) whose per-node row tallies are keyed by the plan's own
// nodes — the same keys the estimate table uses — and the
// q-error between the two tells a serving layer when a cached plan was
// priced on assumptions the data no longer satisfies (deletes and updates
// shift cardinalities without any re-ANALYZE). Estimate drift never makes a
// plan wrong, only slow, so the consumer's move is eviction and re-planning,
// not abort.
package plan

import (
	"math"
	"sync"

	"repro/internal/exec"
)

// DefaultFeedbackThreshold is the q-error past which a cached plan's
// estimates are considered drifted. 4 tolerates normal estimator noise
// (histogram bucket granularity, the containment assumption) while catching
// the order-of-magnitude misses that flip strategy choices.
const DefaultFeedbackThreshold = 4.0

// DefaultFeedbackMinRows ignores drift on nodes where both the estimated and
// the observed row counts are tiny: a 2-row estimate observing 40 rows is a
// 20x q-error that no strategy choice hinges on.
const DefaultFeedbackMinRows = 32

// QError is the symmetric ratio error between an estimated and an observed
// row count, >= 1, with +1 smoothing so empty results stay finite.
func QError(est, actual int64) float64 {
	e, a := float64(est)+1, float64(actual)+1
	return math.Max(e/a, a/e)
}

// Drift is the worst estimate-versus-observation disagreement in a plan.
type Drift struct {
	// Op is the (original) plan node that drifted, Est its estimate.
	Op  exec.Operator
	Est Estimate
	// Actual is the observed row count; Q the q-error.
	Actual int64
	Q      float64
}

// feedbackState is the observation half of a Plan: the per-node row counts
// of the most recent committed instrumented execution.
type feedbackState struct {
	mu      sync.Mutex
	actuals map[exec.Operator]int64
	execs   int64
}

// Instrumented returns a root that runs the plan with a fresh row tally
// installed — the plan's own nodes, counted where the run opens them — and a
// commit func that records the tally as the plan's current observation. Call
// commit after the root has been collected to completion; an abandoned
// (errored) run is simply never committed. Each execution gets its own
// tally, so observations are exact per-run counts even under concurrent
// executions — the committed observation is whichever run finished last,
// which is also the freshest view of the data.
func (p *Plan) Instrumented() (root exec.Operator, commit func()) {
	root, tally := exec.Instrument(p.Root)
	return root, func() {
		rows := tally.Rows() // of every node: a run opens them all
		p.mu.Lock()
		defer p.mu.Unlock()
		p.actuals = rows
		p.execs++
	}
}

// Executions reports how many instrumented runs have been committed.
func (p *Plan) Executions() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.execs
}

// Actual reports the row count observed at a node of the original tree in
// the last committed execution; false before any commit or for an unknown
// node.
func (p *Plan) Actual(op exec.Operator) (int64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	a, ok := p.actuals[op]
	return a, ok
}

// Feedback returns the worst drift between the optimizer's estimates and
// the last committed execution's row counts, considering only nodes where
// either side reaches minRows (<= 0 means DefaultFeedbackMinRows). ok is
// false when nothing qualifies — no committed execution, or every qualifying
// node agrees.
func (p *Plan) Feedback(minRows int64) (Drift, bool) {
	if minRows <= 0 {
		minRows = DefaultFeedbackMinRows
	}
	var worst Drift
	for op, est := range p.est {
		act, ok := p.Actual(op)
		if !ok {
			continue
		}
		if est.Rows < minRows && act < minRows {
			continue
		}
		if q := QError(est.Rows, act); q > worst.Q {
			worst = Drift{Op: op, Est: est, Actual: act, Q: q}
		}
	}
	return worst, worst.Op != nil
}
