// Package stats holds the collected-statistics value types shared by the
// storage layer (which builds them during ANALYZE) and the planner (which
// consumes them for cardinality estimation). It sits below both so neither
// has to import the other.
//
// The only type today is the equi-depth histogram. ANALYZE builds one from
// an attribute's values sorted once (value.SortRuns) and the ends of their
// runs of equal values (FromRuns), the same runs it seeds the attribute's
// distinct counter from; writes then maintain it in place (Absorb,
// Unabsorb). The paper's cost
// arguments (§5.1) assume the optimizer knows enough to rank join
// strategies; a fixed 1/NDV equality rule assumes every value is equally
// frequent, which skewed data — the common case for foreign keys and
// categorical attributes — violates badly. An equi-depth histogram keeps
// per-bucket row and distinct counts with exact bucket bounds, so heavy
// hitters surface as narrow, dense buckets and estimates degrade gracefully
// instead of uniformly.
package stats

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/value"
)

// DefaultBuckets is the bucket budget ANALYZE uses per attribute. 32 buckets
// keep a histogram under ~1KB while resolving skew well past the point where
// the planner's strategy choices stop changing.
const DefaultBuckets = 32

// Bucket is one equi-depth bucket: the inclusive value bounds, the number of
// rows that fell in it, and the number of distinct values among them. A run
// of equal values is never split across buckets, so a heavy hitter occupies
// a bucket of its own (Lo == Hi, NDV == 1) and its frequency is exact.
type Bucket struct {
	Lo, Hi value.Value
	Rows   int
	NDV    int
}

// Histogram is an equi-depth histogram over one attribute's values, buckets
// sorted ascending by value.Compare. Rows is the total row count behind it.
type Histogram struct {
	Buckets []Bucket
	Rows    int
}

// NewEquiDepth builds an equi-depth histogram over vals with at most
// maxBuckets buckets (DefaultBuckets when <= 0). It returns nil when there
// are no values — "no histogram" and "no data" are the same to a consumer.
// vals is put into canonical order in place (value.Sort).
func NewEquiDepth(vals []value.Value, maxBuckets int) *Histogram {
	return FromRuns(vals, value.SortRuns(nil, vals), maxBuckets)
}

// FromRuns is NewEquiDepth over vals already in canonical order, whose runs
// of equal values end at ends (value.SortRuns). It only reads vals and ends,
// so ANALYZE seeds an attribute's distinct counter from the same runs.
func FromRuns(vals []value.Value, ends []int, maxBuckets int) *Histogram {
	if len(vals) == 0 {
		return nil
	}
	if maxBuckets <= 0 {
		maxBuckets = DefaultBuckets
	}
	depth := (len(vals) + maxBuckets - 1) / maxBuckets
	h := &Histogram{Rows: len(vals)}
	var cur *Bucket
	start := 0
	for _, end := range ends {
		// One run of equal values at a time, kept whole.
		run := end - start
		// Start a new bucket when the current one is full — and also when
		// the incoming run is itself bucket-sized: appending a heavy hitter
		// to a partially-filled bucket would dilute its exact frequency by
		// the bucket's other values.
		if cur == nil || cur.Rows >= depth || (cur.Rows > 0 && run >= depth) {
			h.Buckets = append(h.Buckets, Bucket{Lo: vals[start], Hi: vals[start]})
			cur = &h.Buckets[len(h.Buckets)-1]
		}
		cur.Hi = vals[start]
		cur.Rows += run
		cur.NDV++
		start = end
	}
	return h
}

// Clone returns an independent deep copy. The storage layer's incremental
// ANALYZE maintenance mutates a live histogram per insert (Absorb) and
// publishes immutable copies to the planner; Clone is that publication step.
func (h *Histogram) Clone() *Histogram {
	if h == nil {
		return nil
	}
	c := &Histogram{Rows: h.Rows, Buckets: make([]Bucket, len(h.Buckets))}
	copy(c.Buckets, h.Buckets)
	return c
}

// Absorb folds one new value into the histogram in place — the incremental
// counterpart of NewEquiDepth for a store that keeps statistics fresh across
// inserts without re-scanning the extent. A value inside an existing bucket
// bumps that bucket (its NDV only when the bucket was a different singleton
// run is unknowable, so NDV is left alone — an equi-depth bucket's density
// estimate tolerates that); a value outside every bucket gets a singleton
// bucket of its own, so new heavy hitters stay exact. When the bucket list
// grows past four times the default budget, adjacent buckets are merged
// pairwise to bound the footprint.
func (h *Histogram) Absorb(v value.Value) {
	h.Rows++
	i := sort.Search(len(h.Buckets), func(i int) bool {
		return value.Compare(h.Buckets[i].Hi, v) >= 0
	})
	if i < len(h.Buckets) && value.Compare(h.Buckets[i].Lo, v) <= 0 {
		h.Buckets[i].Rows++
		return
	}
	// v falls in the gap before bucket i: insert a singleton bucket.
	h.Buckets = append(h.Buckets, Bucket{})
	copy(h.Buckets[i+1:], h.Buckets[i:])
	h.Buckets[i] = Bucket{Lo: v, Hi: v, Rows: 1, NDV: 1}
	if len(h.Buckets) > 4*DefaultBuckets {
		h.compact()
	}
}

// Unabsorb removes one value from the histogram in place — the inverse of
// Absorb, used when the store deletes or rewrites a row. The containing
// bucket loses one row (and is dropped when emptied; its NDV is unknowable
// without the values, so a partially drained bucket keeps it — the density
// estimate tolerates that the same way Absorb's does). A value outside every
// bucket still decrements the row total: the histogram may have been
// compacted past the exact bounds the value was absorbed under.
func (h *Histogram) Unabsorb(v value.Value) {
	if h == nil || h.Rows == 0 {
		return
	}
	h.Rows--
	i := sort.Search(len(h.Buckets), func(i int) bool {
		return value.Compare(h.Buckets[i].Hi, v) >= 0
	})
	if i == len(h.Buckets) || value.Compare(h.Buckets[i].Lo, v) > 0 {
		return
	}
	h.Buckets[i].Rows--
	if h.Buckets[i].Rows <= 0 {
		h.Buckets = append(h.Buckets[:i], h.Buckets[i+1:]...)
	}
}

// compact halves the bucket count by merging adjacent pairs.
func (h *Histogram) compact() {
	out := h.Buckets[:0]
	for i := 0; i < len(h.Buckets); i += 2 {
		b := h.Buckets[i]
		if i+1 < len(h.Buckets) {
			n := h.Buckets[i+1]
			b.Hi = n.Hi
			b.Rows += n.Rows
			b.NDV += n.NDV
		}
		out = append(out, b)
	}
	h.Buckets = out
}

// NDV reports the total number of distinct values the histogram saw.
func (h *Histogram) NDV() int {
	n := 0
	for i := range h.Buckets {
		n += h.Buckets[i].NDV
	}
	return n
}

// EqFraction estimates the fraction of rows equal to v: the containing
// bucket's average per-value frequency (exact for heavy hitters, which own
// their bucket). A value outside every bucket estimates 0.
func (h *Histogram) EqFraction(v value.Value) float64 {
	if h == nil || h.Rows == 0 {
		return 0
	}
	i := sort.Search(len(h.Buckets), func(i int) bool {
		return value.Compare(h.Buckets[i].Hi, v) >= 0
	})
	if i == len(h.Buckets) || value.Compare(h.Buckets[i].Lo, v) > 0 {
		return 0
	}
	b := &h.Buckets[i]
	return float64(b.Rows) / float64(b.NDV) / float64(h.Rows)
}

// LessFraction estimates the fraction of rows with a value < v (or <= v when
// orEqual). Within the straddled bucket the position is interpolated for
// numeric kinds and assumed halfway otherwise.
func (h *Histogram) LessFraction(v value.Value, orEqual bool) float64 {
	if h == nil || h.Rows == 0 {
		return 0
	}
	rows := 0.0
	for i := range h.Buckets {
		b := &h.Buckets[i]
		if value.Compare(b.Hi, v) < 0 {
			rows += float64(b.Rows)
			continue
		}
		if value.Compare(b.Lo, v) > 0 {
			break
		}
		// v falls inside [Lo, Hi].
		frac := interpolate(b.Lo, b.Hi, v)
		part := float64(b.Rows) * frac
		perValue := float64(b.Rows) / float64(b.NDV)
		if orEqual {
			// Credit one value's worth of rows for v itself.
			part += perValue
		} else {
			// Strictly below v: v's own rows cannot be counted, so at least
			// one value's worth stays out. For a singleton bucket (Lo == Hi
			// == v, the heavy-hitter case) this caps the contribution at 0 —
			// interpolate alone would report the whole bucket as below its
			// own value.
			if part > float64(b.Rows)-perValue {
				part = float64(b.Rows) - perValue
			}
		}
		part = clamp01(part/float64(b.Rows)) * float64(b.Rows)
		rows += part
		break
	}
	return clamp01(rows / float64(h.Rows))
}

// RangeFraction estimates the fraction of rows within the (possibly
// one-sided) range: nil bounds are open ends.
func (h *Histogram) RangeFraction(lo, hi value.Value, loIncl, hiIncl bool) float64 {
	if h == nil || h.Rows == 0 {
		return 0
	}
	upper := 1.0
	if hi != nil {
		upper = h.LessFraction(hi, hiIncl)
	}
	lower := 0.0
	if lo != nil {
		// Rows below the lower bound: strictly below for an inclusive bound,
		// up to and including for an exclusive one.
		lower = h.LessFraction(lo, !loIncl)
	}
	return clamp01(upper - lower)
}

// JoinSelectivity estimates the selectivity of an equality join between two
// attributes from their histograms: overlapping bucket pairs contribute
// rowsA·rowsB/max(ndvA, ndvB) matches (the containment assumption applied
// per overlap instead of globally), non-overlapping value ranges contribute
// nothing. This is what replaces the global min-NDV rule: two attributes
// whose domains barely intersect estimate near zero instead of 1/NDV.
func JoinSelectivity(a, b *Histogram) (float64, bool) {
	if a == nil || b == nil || a.Rows == 0 || b.Rows == 0 {
		return 0, false
	}
	matches := 0.0
	i, j := 0, 0
	for i < len(a.Buckets) && j < len(b.Buckets) {
		ba, bb := &a.Buckets[i], &b.Buckets[j]
		if value.Compare(ba.Hi, bb.Lo) < 0 {
			i++
			continue
		}
		if value.Compare(bb.Hi, ba.Lo) < 0 {
			j++
			continue
		}
		// Overlapping value range [max(Lo), min(Hi)].
		lo, hi := ba.Lo, ba.Hi
		if value.Compare(bb.Lo, lo) > 0 {
			lo = bb.Lo
		}
		if value.Compare(bb.Hi, hi) < 0 {
			hi = bb.Hi
		}
		fa := overlapFraction(ba, lo, hi)
		fb := overlapFraction(bb, lo, hi)
		ra, rb := float64(ba.Rows)*fa, float64(bb.Rows)*fb
		na := maxf(1, float64(ba.NDV)*fa)
		nb := maxf(1, float64(bb.NDV)*fb)
		matches += ra * rb / maxf(na, nb)
		if value.Compare(ba.Hi, bb.Hi) <= 0 {
			i++
		} else {
			j++
		}
	}
	return clamp01(matches / (float64(a.Rows) * float64(b.Rows))), true
}

// overlapFraction estimates what fraction of a bucket's rows fall inside the
// value range [lo, hi] (both within the bucket's bounds).
func overlapFraction(b *Bucket, lo, hi value.Value) float64 {
	if value.Compare(b.Lo, b.Hi) == 0 {
		return 1 // single-value bucket: in the overlap entirely or not at all
	}
	f := interpolate(b.Lo, b.Hi, hi) - interpolate(b.Lo, b.Hi, lo)
	// The bounds themselves carry rows; give the closed range one value's
	// width so [v, v] overlaps don't vanish.
	f += 1 / maxf(1, float64(b.NDV))
	return clamp01(f)
}

// interpolate estimates the position of v within [lo, hi] as a fraction in
// [0, 1]: linear for the numeric kinds, 1/2 for kinds without a metric.
func interpolate(lo, hi, v value.Value) float64 {
	l, lok := numeric(lo)
	h, hok := numeric(hi)
	x, vok := numeric(v)
	if !lok || !hok || !vok || h <= l {
		if value.Compare(v, hi) >= 0 {
			return 1
		}
		if value.Compare(v, lo) <= 0 {
			return 0
		}
		return 0.5
	}
	return clamp01((x - l) / (h - l))
}

// numeric projects the orderable numeric kinds onto float64.
func numeric(v value.Value) (float64, bool) {
	switch n := v.(type) {
	case value.Int:
		return float64(n), true
	case value.Float:
		return float64(n), true
	case value.Date:
		return float64(n), true
	case value.OID:
		return float64(n), true
	}
	return 0, false
}

func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// String renders the histogram compactly: total rows, then one
// [lo..hi]×rows/ndv cell per bucket.
func (h *Histogram) String() string {
	if h == nil {
		return "<no histogram>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "equi-depth %d rows, %d buckets:", h.Rows, len(h.Buckets))
	for i := range h.Buckets {
		bk := &h.Buckets[i]
		if value.Compare(bk.Lo, bk.Hi) == 0 {
			fmt.Fprintf(&b, " [%s]×%d/%d", bk.Lo, bk.Rows, bk.NDV)
		} else {
			fmt.Fprintf(&b, " [%s..%s]×%d/%d", bk.Lo, bk.Hi, bk.Rows, bk.NDV)
		}
	}
	return b.String()
}
