// Package server is the serving layer: a long-lived query engine over one
// storage.Store that executes OOSQL against pinned MVCC snapshots while
// concurrent inserts land, planning through a two-level prepared-query cache.
//
// Level 1 maps the exact query text to its physical plan and the stats epoch
// it was priced under. Statistics drift only changes which plan is cheapest,
// never what a plan returns — the differential suite proves every physical
// strategy result-equal — so a cached plan is correct at any epoch; the epoch
// exists to bound staleness of plan *quality*. When the store's epoch moves
// past a cached entry's (enough inserts since the last bump, or an index
// change), the next request re-plans against freshly published statistics.
// A cached operator tree is immutable — opening it creates the state of one
// run — so concurrent requests execute the cached tree itself.
//
// Level 2 serves a text never seen, or one whose plan must be rebuilt, from
// the rewritten form of its structure. adl.Lift takes the atomic literals out
// of comparisons (`p.price < 1001` becomes `p.price < $0`) and encodes the rest
// as the key; the paper's rewrite — most of the cost of a prepare — runs once
// per such template. Literals a rewrite rule reads (booleans, sets, 1 = 1,
// the 0 of count(…) = 0) stay in the template and its key. The text's token
// fingerprint (oosql.Fingerprint: the tokens, each literal as its kind and
// the class of literals equal to it) is a second key to the same template,
// with the recipe that makes the classes of a text the template's arguments:
// a later text of the fingerprint is lexed, without building its tokens, and
// its literals made the arguments. A text whose recipe does not take its literals, or whose
// fingerprint is unseen, parses, translates and lifts to find the template.
// The rewritten template is planned with the arguments, which the estimates
// read as the literals they are, so the planner prices the query as written;
// the parameters stay in the plan and a run reads them from exec.Ctx.Args.
// The template keeps a few such plans, each with its signature: the
// histogram estimates that read an argument. A text whose arguments give
// every one of them bit-equal is planned no more — the planner would build
// the same tree — but runs that plan with its own arguments (PlanReuses). A
// template hit counts as a miss or a replan, and in TemplateHits. Both levels
// hold a fixed number of entries (cache.go).
//
// Inserts advance the epoch through the store's mutation counter; deletes
// and updates deliberately do not — their drift is caught from the other
// end by runtime feedback: cached executions run instrumented, and when the
// observed per-node row counts disagree with the plan's estimates past a
// q-error threshold and newer statistics exist, the entry is evicted and the
// epoch advanced, so the next request re-plans against the mutations.
package server

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/value"
)

// Options configures an Engine.
type Options struct {
	// NoPlanCache disables both plan-cache levels, the text → plan cache
	// and the template cache, and with them runtime feedback: every query is
	// prepared from scratch. The zero Options enables them.
	NoPlanCache bool
	// Parallelism is ignored.
	//
	// Deprecated: it was the worker count of the parallel hash join and
	// ColumnScan, which are gone — every plan runs on the goroutine that
	// opens it. It remains only because benchmark/trace.go, which the engine
	// may not edit, still reads it. Remove it with the next change to
	// benchmark/.
	Parallelism int
	// NoFeedback disables runtime cardinality feedback. By default every
	// cached execution runs instrumented (per-node row tallies) and a plan
	// whose q-error (max ratio between estimated and observed rows at any
	// plan node) passes plan.DefaultFeedbackThreshold is evicted and the
	// stats epoch advanced, forcing re-planning against fresh statistics.
	NoFeedback bool
	// FeedbackMinRows ignores drift where both estimate and observation
	// stay under this row count; 0 means plan.DefaultFeedbackMinRows.
	FeedbackMinRows int64
	// Vectorized is ignored.
	//
	// Deprecated: it switched σ over an extent onto the batch pipeline; the
	// planner now prices a ColumnScan as one candidate among the others. It
	// remains only because benchmark/, which the engine may not edit, still
	// sets it. Remove it with the next change to benchmark/.
	Vectorized bool
}

// Engine serves OOSQL queries and inserts over one store.
type Engine struct {
	st   *storage.Store
	opts Options

	plans *clock[*cacheEntry] // level 1: query text → physical plan
	tmpl  templates           // level 2: lifted structure or fingerprint → template

	queries   atomic.Int64
	inserts   atomic.Int64
	deletes   atomic.Int64
	updates   atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	replans   atomic.Int64
	evictions atomic.Int64
}

// cacheEntry is one prepared query: the plan, and the stats epoch and the
// statistics it was priced under.
type cacheEntry struct {
	epoch uint64
	q     *core.Query
	stats *storage.DBStats
	// ackSeq is 1 + the store version at which feedback found the plan
	// drifted under unchanged statistics; not checked again at that version.
	ackSeq atomic.Uint64
}

// New builds an engine over a populated store.
func New(st *storage.Store, opts Options) *Engine {
	return &Engine{st: st, opts: opts, plans: newClock[*cacheEntry](planCacheCap),
		tmpl: templates{cache: newClock[*core.Template](templateCacheCap)}}
}

// Store exposes the underlying store (for diagnostics and direct loading).
func (e *Engine) Store() *storage.Store { return e.st }

// Result is one query execution: the result set and the consistency
// metadata of the snapshot it ran against.
type Result struct {
	Set *value.Set
	// Seq is the pinned version's sequence number; Epoch the stats epoch
	// the plan was keyed on.
	Seq   uint64
	Epoch uint64
	// CacheHit reports whether the plan came from the cache; Replanned
	// whether a cached plan existed but was re-planned on epoch drift;
	// Evicted whether THIS execution's observed row counts drifted far
	// enough from the plan's estimates to evict it (the next request for
	// the same source re-plans against fresh statistics).
	CacheHit  bool
	Replanned bool
	Evicted   bool
}

// prepare resolves the plan for a query source at the given epoch, through
// the cache unless disabled.
func (e *Engine) prepare(src string, epoch uint64) (*cacheEntry, bool, bool, error) {
	if e.opts.NoPlanCache {
		ent, err := e.plan(src, epoch, nil)
		return ent, false, false, err
	}
	old, cached := e.plans.get(src)
	if cached && old.epoch == epoch {
		e.hits.Add(1)
		return old, true, false, nil
	}
	// Miss or drift: plan outside the cache lock — planning can be costly
	// and concurrent requests for other queries must not serialize on it.
	ent, err := e.plan(src, epoch, &e.tmpl)
	if err != nil {
		return nil, false, false, err
	}
	e.tmpl.count(ent.q.Reuse)
	if cached {
		e.replans.Add(1)
	} else {
		e.misses.Add(1)
	}
	e.plans.put(src, ent)
	return ent, false, cached, nil
}

// plan prepares a query against freshly published statistics.
func (e *Engine) plan(src string, epoch uint64, tc core.TemplateCache) (*cacheEntry, error) {
	stats := e.st.Analyze()
	cfg := plan.Config{Statistics: stats}
	q, err := core.PrepareCached(src, e.st.Catalog(), cfg, tc)
	if err != nil {
		return nil, err
	}
	return &cacheEntry{epoch: epoch, q: q, stats: stats}, nil
}

// Query executes an OOSQL query against a snapshot pinned at call time:
// the result reflects exactly the mutations published before the pin, no
// matter how many land while the query runs. The snapshot is released when
// the query returns, so it never holds the GC horizon back.
func (e *Engine) Query(src string) (*Result, error) { return e.query(src, false) }

// QueryVerified executes like Query, then re-executes the untransformed
// nested form tuple-at-a-time against the same pinned snapshot and fails if
// the two result sets differ — the reads-under-writes differential arm: a
// mismatch means either the rewrite/planner broke result equivalence or the
// snapshot was not actually immutable under concurrent inserts.
func (e *Engine) QueryVerified(src string) (*Result, error) { return e.query(src, true) }

// query is Query, and with verify QueryVerified: one counted query on one
// pinned snapshot.
func (e *Engine) query(src string, verify bool) (*Result, error) {
	e.queries.Add(1)
	sn := e.st.Snapshot()
	defer sn.Release()
	ent, hit, replanned, err := e.prepare(src, sn.StatsEpoch())
	if err != nil {
		return nil, err
	}
	set, evicted, err := e.run(src, ent, sn)
	if err != nil {
		return nil, err
	}
	if verify {
		want, err := ent.q.ExecuteNaive(sn)
		if err != nil {
			return nil, fmt.Errorf("server: serial re-execution failed: %w", err)
		}
		if set.Len() != want.Len() || !set.SubsetOf(want) {
			return nil, fmt.Errorf("server: non-linearizable read at seq %d: plan returned %d rows, serial re-execution %d",
				sn.Seq(), set.Len(), want.Len())
		}
	}
	return &Result{Set: set, Seq: sn.Seq(), Epoch: sn.StatsEpoch(),
		CacheHit: hit, Replanned: replanned, Evicted: evicted}, nil
}

// run executes one prepared query against a pinned snapshot — instrumented
// when feedback is on — and applies the post-execution drift check.
func (e *Engine) run(src string, ent *cacheEntry, sn *storage.Snapshot) (*value.Set, bool, error) {
	q := ent.q
	ctx := &exec.Ctx{DB: sn, Args: q.Planned.Args()}
	if e.opts.NoPlanCache || e.opts.NoFeedback || ent.ackSeq.Load() == sn.Seq()+1 {
		set, err := exec.Collect(q.Plan, ctx)
		return set, false, err
	}
	root, commit := q.Planned.Instrumented()
	set, err := exec.Collect(root, ctx)
	if err != nil {
		return nil, false, err
	}
	commit()
	return set, e.feedback(src, ent, sn.Seq()), nil
}

// feedback compares a completed execution's observed row counts against the
// plan's estimates. Drift past the threshold means the statistics the plan
// was priced under no longer describe the data (deletes and updates shift
// cardinalities without re-ANALYZE): the entry is evicted and the stats
// epoch advanced, so every cached plan re-prices against fresh statistics
// on its next request — unless Analyze (memoized between mutations) still
// returns what the plan was priced under: a re-plan would rebuild this plan
// (dangling references, a shape no statistic covers), so entry and epoch
// stay. Drift never makes a plan wrong — every strategy is result-equal — so
// this is purely a plan-quality repair loop closing the estimate → execute →
// observe → re-plan cycle.
func (e *Engine) feedback(src string, ent *cacheEntry, seq uint64) bool {
	d, ok := ent.q.Planned.Feedback(e.opts.FeedbackMinRows)
	if !ok || d.Q <= plan.DefaultFeedbackThreshold {
		return false
	}
	if e.st.Analyze() == ent.stats {
		ent.ackSeq.Store(seq + 1)
		return false
	}
	e.plans.remove(src, ent)
	e.evictions.Add(1)
	e.st.AdvanceStatsEpoch()
	return true
}

// Insert stores an object in the named extent, visible to every snapshot
// pinned after it returns.
func (e *Engine) Insert(extent string, t *value.Tuple) (value.OID, error) {
	e.inserts.Add(1)
	return e.st.Insert(extent, t)
}

// Delete tombstones an object: snapshots pinned before the delete keep
// seeing it, snapshots pinned after do not.
func (e *Engine) Delete(extent string, oid value.OID) error {
	e.deletes.Add(1)
	return e.st.Delete(extent, oid)
}

// Update replaces an object's attributes in place (same oid, so references
// to it stay valid), visible to every snapshot pinned after it returns.
func (e *Engine) Update(extent string, oid value.OID, t *value.Tuple) error {
	e.updates.Add(1)
	return e.st.Update(extent, oid, t)
}

// Metrics is a point-in-time counter snapshot. TemplateHits counts plans
// prepared from a cached rewritten template (each also a CacheMiss or a
// Replan), FingerprintHits those of them prepared by token fingerprint (lex →
// args → plan), PlanReuses those whose plan too was the template's (no
// planning), FingerprintFallbacks the plans whose text's fingerprint was
// cached but that took the full path, CacheEntries the texts holding a plan.
// TupleShapes is the process-wide value.ShapeCount: shapes are never freed
// and a `select (x = …)` with a novel attribute list mints one, so it should
// stop growing once the query mix has been seen.
type Metrics struct {
	Queries              int64  `json:"queries"`
	Inserts              int64  `json:"inserts"`
	Deletes              int64  `json:"deletes"`
	Updates              int64  `json:"updates"`
	CacheHits            int64  `json:"cache_hits"`
	CacheMiss            int64  `json:"cache_misses"`
	Replans              int64  `json:"replans"`
	FeedbackEvictions    int64  `json:"feedback_evictions"`
	TemplateHits         int64  `json:"template_hits"`
	FingerprintHits      int64  `json:"fingerprint_hits"`
	PlanReuses           int64  `json:"plan_reuses"`
	FingerprintFallbacks int64  `json:"fingerprint_fallbacks"`
	CacheEntries         int64  `json:"cache_entries"`
	TupleShapes          int64  `json:"tuple_shapes"`
	StatsEpoch           uint64 `json:"stats_epoch"`
	Seq                  uint64 `json:"seq"`
}

// Metrics reports the engine counters and current store position.
func (e *Engine) Metrics() Metrics {
	sn := e.st.Snapshot()
	defer sn.Release()
	return Metrics{
		Queries:              e.queries.Load(),
		Inserts:              e.inserts.Load(),
		Deletes:              e.deletes.Load(),
		Updates:              e.updates.Load(),
		CacheHits:            e.hits.Load(),
		CacheMiss:            e.misses.Load(),
		Replans:              e.replans.Load(),
		FeedbackEvictions:    e.evictions.Load(),
		TemplateHits:         e.tmpl.hits.Load(),
		FingerprintHits:      e.tmpl.fpHits.Load(),
		PlanReuses:           e.tmpl.planReuses.Load(),
		FingerprintFallbacks: e.tmpl.fpFallbacks.Load(),
		CacheEntries:         int64(e.plans.len()),
		TupleShapes:          value.ShapeCount(),
		StatsEpoch:           sn.StatsEpoch(),
		Seq:                  sn.Seq(),
	}
}
