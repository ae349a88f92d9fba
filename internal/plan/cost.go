// Cost model for physical operator selection. The paper's §5.1 promise —
// "the optimizer may choose from a number of different join processing
// strategies" — needs a way to rank the choices; this file prices every
// physical join operator (NLJoin, HashJoin with either build side, serial or
// parallel, its membership probe and PNHL, IndexNLJoin) and every way to run
// σ over an extent (IndexScan, ColumnScan serial or parallel) from collected
// statistics (storage.Analyze), or from the default statistics when none
// were collected, and lets the planner pick the cheapest.
//
// Costs are abstract work units, calibrated so that one unit is roughly one
// cheap per-row step of the Go execution engine. The constants matter only
// relative to each other; the interesting outputs are strategy crossovers,
// not absolute numbers.
package plan

import (
	"math"

	"repro/internal/adl"
	"repro/internal/exec"
	"repro/internal/stats"
)

// Statistics is the collected-statistics view of the database the cost model
// consumes; *storage.DBStats implements it.
type Statistics interface {
	// RowCount reports an extent's cardinality, -1 if unknown.
	RowCount(extent string) int
	// DistinctValues reports an attribute's distinct-value count, 0 if
	// unknown.
	DistinctValues(extent, attr string) int
	// AvgSetSize reports the mean cardinality of a set-valued attribute,
	// 0 if unknown or not set-valued.
	AvgSetSize(extent, attr string) float64
	// IndexKind reports the secondary index on extent.attr: "hash"
	// (equality probes), "ordered" (equality and range probes), or "" when
	// the attribute is not indexed. It gates the index access paths —
	// IndexScan leaves and the index-nested-loop join.
	IndexKind(extent, attr string) string
	// Histogram reports the equi-depth histogram collected for extent.attr
	// (the element distribution for a set-valued attribute), or nil when
	// none was collected. The estimator prices equality predicates by bucket
	// density, range predicates by bucket interpolation, and join-key
	// overlap by histogram intersection; a nil histogram falls back to the
	// NDV rules.
	Histogram(extent, attr string) *stats.Histogram
}

// defaultRows is the cardinality the cost model prices an extent at when the
// statistics have no row count for it: every extent of a plan made without
// Config.Statistics, and an extent the collected statistics do not know.
const defaultRows = 1000

// defaultStatistics stands in for a nil Config.Statistics: every extent is of
// unknown size (so priced at defaultRows), with no distinct counts, set
// sizes, indexes or histograms, so every estimate falls to its default
// rule.
type defaultStatistics struct{}

func (defaultStatistics) RowCount(string) int                       { return -1 }
func (defaultStatistics) DistinctValues(string, string) int         { return 0 }
func (defaultStatistics) AvgSetSize(string, string) float64         { return 0 }
func (defaultStatistics) IndexKind(string, string) string           { return "" }
func (defaultStatistics) Histogram(string, string) *stats.Histogram { return nil }

// Estimate annotates a physical operator with the optimizer's prediction.
type Estimate struct {
	// Rows is the estimated output cardinality.
	Rows int64
	// Cost is the estimated cumulative cost in abstract work units
	// (children included).
	Cost float64
	// Note is an optional human-readable hint about the choice, e.g.
	// "build side swapped".
	Note string
}

// Cost model constants. cEval dominates: scalar expressions run through the
// reference interpreter, so a predicate or key evaluation costs several
// times a plain row hand-off.
const (
	cRow       = 1.0 // emit or pass one row
	cEval      = 4.0 // evaluate one compiled scalar expression
	cHashBuild = 3.5 // insert one row into a hash table
	cHashProbe = 2.0 // probe one key against a hash table

	// cIndexProbe is one key probe against a secondary index (hash bucket
	// walk or ordered binary search); cIndexFetch is fetching one matching
	// object through the store's metered lookup path — random-access I/O,
	// priced above a scan's sequential row hand-off.
	cIndexProbe = 2.5
	cIndexFetch = 1.5

	// cParallelStartup is the fixed price of a parallel hash join's run (a
	// goroutine per share, the shares' bookkeeping). It is hand-picked, not
	// fitted: with the per-row terms below, the hash join on two workers
	// overtakes the serial one at a combined input of a few thousand rows.
	cParallelStartup = 12000.0
	// cJoinedRow is the per-row price of handing a row a share emits to the
	// joined output: appended to its share's rows, then copied into the
	// result in share order.
	cJoinedRow = 1.0

	// defaultSelectivity is the guess for predicates the model cannot see
	// through.
	defaultSelectivity = 1.0 / 3.0
	// defaultSetSize is the guess for a set-valued attribute's mean
	// cardinality when uncollected.
	defaultSetSize = 4.0
)

// nodeEst is the planner's internal estimate for one compiled subtree.
type nodeEst struct {
	rows float64
	// extent is the base table this subtree's rows (still) originate from,
	// when attribute statistics remain applicable ("" otherwise).
	extent string
	cost   float64
	note   string
}

// estimate converts a nodeEst to the exported annotation. Row estimates
// beyond int64 saturate instead of wrapping negative in the conversion.
func (e nodeEst) estimate() Estimate {
	rows := finite(e.rows)
	out := int64(math.MaxInt64)
	if rows < 9e18 { // safely below the float64 image of MaxInt64
		out = int64(rows + 0.5)
	}
	return Estimate{Rows: out, Cost: finite(e.cost), Note: e.note}
}

// finite guards estimate arithmetic against NaN/Inf: empty extents drive row
// counts (and hence divisors) to zero, and a poisoned estimate would corrupt
// every cost comparison above it. NaN collapses to 0, infinities saturate.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return 0
	}
	return v
}

// attrOf resolves a join-key expression to the attribute it reads off the
// iteration variable: x.a and x[a] both resolve to "a". Anything else
// (computed keys) resolves to "".
func attrOf(key adl.Expr, v string) string {
	switch k := key.(type) {
	case *adl.Field:
		if vr, ok := k.X.(*adl.Var); ok && vr.Name == v {
			return k.Name
		}
	case *adl.Subscript:
		if vr, ok := k.X.(*adl.Var); ok && vr.Name == v && len(k.Attrs) == 1 {
			return k.Attrs[0]
		}
	}
	return ""
}

// clamp bounds v to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}

// joinOutRows estimates a join's output cardinality per kind, from the input
// sizes, the estimated inner-join output (supplied by the estimator — NDV
// containment or histogram intersection) and the key distinct counts that
// drive the filtering kinds' match fraction.
func joinOutRows(kind adl.JoinKind, l, r, inner, ndvL, ndvR float64) float64 {
	inner = finite(inner)
	matchFrac := clamp(finite(ndvR/math.Max(1, ndvL)), 0, 1)
	switch kind {
	case adl.Inner:
		return inner
	case adl.Outer:
		return math.Max(inner, l)
	case adl.Semi:
		return l * matchFrac
	case adl.Anti:
		return l * (1 - matchFrac)
	case adl.NestJ:
		return l // the nestjoin emits exactly one row per left row
	}
	return inner
}

// ---------------------------------------------------------------------------
// Per-operator own costs (excluding the children's costs). l and r are the
// input cardinalities, out the estimated output cardinality.
// ---------------------------------------------------------------------------

// costNL prices the tuple-oriented nested loop: one predicate evaluation per
// pair.
func costNL(l, r, out float64) float64 {
	return l*r*cEval + out*cRow
}

// costHash prices the serial hash join: build on `build` rows, probe with
// `probe` rows, evaluate the residual on the candidate matches.
func costHash(build, probe, out, residMatches float64) float64 {
	return build*(cEval+cHashBuild) + probe*(cEval+cHashProbe) +
		residMatches*cEval + out*cRow
}

// costParallelHash prices the hash join on p workers: a fixed startup, one
// pass handing every row of both inputs to its key or probe share, the key
// evaluation, build and probe divided across the workers, and handing the
// output to the joined result.
func costParallelHash(build, probe, out, residMatches float64, p int) float64 {
	w := math.Max(1, float64(p))
	work := build*(cEval+cHashBuild) + probe*(cEval+cHashProbe) + residMatches*cEval
	return cParallelStartup + (build+probe)*cRow + work/w + out*cJoinedRow
}

// costPNHL prices the Partitioned Nested-Hashed-Loops family for joining a
// set-valued attribute (l rows, avgSet elements each) with a flat build
// table of r rows, split into `segments` memory-bounded segments: the build
// table is hashed once in total, but the probe side is rescanned per
// segment. The single-segment case (segments=1) prices the hash join's
// membership probe (HashJoin.In) the planner emits for key(y) ∈ x.attr.
func costPNHL(l, avgSet, r, out float64, segments int) float64 {
	s := math.Max(1, float64(segments))
	return r*(cEval+cHashBuild) + s*l*avgSet*cHashProbe + out*cRow
}

// costIndexScan prices an index leaf: one probe plus fetching and emitting
// the matching objects. Against the full scan + filter's rows*cEval it wins
// exactly when the predicate is selective — a low-NDV equality or a wide
// range loses to the sequential sweep.
func costIndexScan(matches float64) float64 {
	return cIndexProbe + matches*(cIndexFetch+cRow)
}

// costIndexNL prices the index-nested-loop join: each of the outer rows
// evaluates its key and probes the inner extent's index, the matches are
// fetched, residual conjuncts are evaluated on them, and the output rows
// emitted. No term scales with the inner extent's cardinality — that is the
// whole point, and why it beats the hash join's full inner scan when the
// outer side is small.
func costIndexNL(outer, matches, residMatches, out float64) float64 {
	return outer*(cEval+cIndexProbe) + matches*cIndexFetch + residMatches*cEval + out*cRow
}

// ColumnScan constants. ColumnScan pays a fixed dispatch cost per batch
// (selection-vector reset, kernel calls) and a much smaller per-row cost
// than the interpreter where a typed kernel runs: it compares decoded column
// slices without env binding or value boxing. A conjunct without a typed
// kernel runs the interpreter row by row, at cEval.
const (
	cBatchDispatch = 16.0 // fixed cost of dispatching one batch
	cVecRow        = 0.25 // per-row cost inside a typed kernel
)

// pages is the number of batches n rows occupy.
func pages(n float64) float64 {
	return math.Ceil(math.Max(0, n) / exec.DefaultBatchSize)
}

// ColumnScan's parallel constants. Its workers split the projection into
// contiguous shares of whole batches and share nothing but the result, so
// the startup hurdle is a third of the hash join's cParallelStartup, and
// joining their rows in share order is paid per batch, not per row.
const (
	cBatchMerge         = 4.0    // hand one batch's rows to the joined result
	cVecParallelStartup = 4000.0 // spawn the workers, one selection vector each
)

// costColumnScan prices σ over n rows on the columnar projection, its
// conjuncts costing perRow per input row together, on w workers: the
// projection is read at cVecRow per row, and every row passes through each
// kernel (no short-circuit across rows, only across kernels as the selection
// narrows — priced pessimistically at full width). In parallel the kernel
// work divides by the worker count; the merge and the startup hurdle do not.
func costColumnScan(n, perRow float64, w int) float64 {
	if w <= 1 {
		return pages(n)*cBatchDispatch + n*cVecRow + (pages(n)*cBatchDispatch + n*perRow)
	}
	return cVecParallelStartup +
		(pages(n)*cBatchDispatch+n*perRow)/float64(w) +
		pages(n)*cBatchMerge
}
