// ANALYZE-style statistics collection. The paper leaves the choice among
// join strategies to "the optimizer" (§5.1) without saying where its
// knowledge comes from; a modern engine answers with collected statistics.
// The first Analyze scans every extent once and records, per base table, the
// row count, per-attribute distinct-value counts, equi-depth histograms of
// the scalar attribute values (and of set-element values), and the average
// cardinality of set-valued attributes. It is one typed pass per attribute:
// the scan resolves each row shape's attributes once and gathers every
// attribute's values into a slice sized from a counting pass; each slice is
// sorted once (value.SortRuns), and the histogram and the exact distinct
// counter are both read off its runs of equal values — the counter seeded
// with one slot per run, the run's length as its reference count. From then
// on the store maintains that state incrementally: every Insert absorbs the
// new row into the live counters and histograms in place (Delete and Update
// unabsorb the old row), exactly as if the counters had been fed row by
// row, so a long-lived server never re-scans an extent to keep its planner
// fed. Analyze publishes an immutable DBStats copy of the live state,
// memoized until the next mutation; the per-store stats epoch (StatsEpoch)
// advances only on material drift — an index change, or enough rows since
// the last bump to matter — and is what the serving layer's plan cache keys
// on.
package storage

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stats"
	"repro/internal/value"
)

// Stats-epoch drift policy: the epoch advances once an extent has absorbed
// at least epochRowFloor rows since the last bump, or epochRowFrac of the
// rows it had then, whichever is larger. Bumping on every insert would make
// an epoch-keyed plan cache useless under a write-heavy load; plans stay
// result-correct under any statistics (the differential suite proves every
// strategy equal), so deferring the bump only defers plan-quality
// adaptation, never correctness.
const (
	epochRowFloor = 64
	epochRowFrac  = 0.10
)

// TableStats holds the collected statistics of one extent.
type TableStats struct {
	// Rows is the extent cardinality.
	Rows int
	// Distinct maps a scalar top-level attribute name to its number of
	// distinct values. Set-valued attributes are not counted — hashing whole
	// sets per row is expensive and no consumer prices set NDV; their shape
	// is AvgSetSize.
	Distinct map[string]int
	// AvgSetSize maps each set-valued attribute to the mean cardinality of
	// its sets across the extent.
	AvgSetSize map[string]float64
	// Mixed lists attributes that are set-valued in only some rows (or
	// scalar in some, set in others): their statistics are unknown — a
	// distinct count over just the scalar rows would be an undercount
	// presented as exact, and an average over just the set rows likewise.
	Mixed []string
	// Indexes maps each indexed attribute to its index kind ("hash" or
	// "ordered"), as registered with Store.CreateIndex at collection time.
	Indexes map[string]string
	// Hist maps each scalar attribute to the equi-depth histogram of its
	// values; Mixed attributes get none (the same undercount argument as
	// Distinct applies).
	Hist map[string]*stats.Histogram
	// ElemHist maps each set-valued attribute to the equi-depth histogram of
	// the elements pooled across all of the extent's sets — the element
	// distribution a membership probe runs against.
	ElemHist map[string]*stats.Histogram
}

// DBStats is the database-wide result of Analyze: extent name → TableStats.
// It implements the plan package's Statistics interface. A published DBStats
// is immutable — later inserts mutate the store's live state and are
// reflected only by a later Analyze.
type DBStats struct {
	Tables map[string]TableStats
	// Epoch is the store's stats epoch at publication time; a plan priced
	// against this DBStats is cacheable until Store.StatsEpoch drifts past
	// it.
	Epoch uint64
}

// RowCount reports the collected cardinality of an extent, or -1 if the
// extent was not analyzed.
func (d *DBStats) RowCount(extent string) int {
	t, ok := d.Tables[extent]
	if !ok {
		return -1
	}
	return t.Rows
}

// DistinctValues reports the collected distinct-value count of an attribute,
// or 0 if unknown.
func (d *DBStats) DistinctValues(extent, attr string) int {
	return d.Tables[extent].Distinct[attr]
}

// AvgSetSize reports the mean cardinality of a set-valued attribute, or 0 if
// the attribute is not set-valued or was not analyzed.
func (d *DBStats) AvgSetSize(extent, attr string) float64 {
	return d.Tables[extent].AvgSetSize[attr]
}

// Attributes lists an extent's collected top-level attribute names (scalar,
// set-valued, and mixed), sorted, or nil if the extent was not analyzed.
// Mixed attributes are listed even though their statistics are unknown.
func (d *DBStats) Attributes(extent string) []string {
	t, ok := d.Tables[extent]
	if !ok {
		return nil
	}
	attrs := make([]string, 0, len(t.Distinct)+len(t.AvgSetSize)+len(t.Mixed))
	for a := range t.Distinct {
		attrs = append(attrs, a)
	}
	for a := range t.AvgSetSize {
		attrs = append(attrs, a)
	}
	attrs = append(attrs, t.Mixed...)
	sort.Strings(attrs)
	return attrs
}

// Histogram reports the equi-depth histogram collected for extent.attr, or
// nil when none was (unknown extent, mixed attribute, empty extent). For a
// scalar attribute it describes the attribute's values; for a set-valued
// attribute, the distribution of the set elements across the extent.
func (d *DBStats) Histogram(extent, attr string) *stats.Histogram {
	t, ok := d.Tables[extent]
	if !ok {
		return nil
	}
	if h, ok := t.Hist[attr]; ok {
		return h
	}
	return t.ElemHist[attr]
}

// IndexKind reports the kind of the secondary index on extent.attr at
// ANALYZE time ("hash" or "ordered"), or "" when the attribute is not
// indexed. The planner uses it to admit index access paths.
func (d *DBStats) IndexKind(extent, attr string) string {
	return d.Tables[extent].Indexes[attr]
}

// String renders the collected statistics as a small report, one block per
// extent, for inspection and debugging (fmt.Print(store.Analyze())).
func (d *DBStats) String() string {
	names := make([]string, 0, len(d.Tables))
	for n := range d.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		t := d.Tables[n]
		fmt.Fprintf(&b, "%s: %d rows\n", n, t.Rows)
		attrs := d.Attributes(n)
		mixed := map[string]bool{}
		for _, a := range t.Mixed {
			mixed[a] = true
		}
		for _, a := range attrs {
			idx := ""
			if kind, ok := t.Indexes[a]; ok {
				idx = fmt.Sprintf(" [%s index]", kind)
			}
			hist := ""
			if h := d.Histogram(n, a); h != nil {
				hist = fmt.Sprintf(", hist(%d buckets)", len(h.Buckets))
			}
			avg, isSet := t.AvgSetSize[a]
			switch {
			case mixed[a]:
				fmt.Fprintf(&b, "  .%s: mixed scalar/set, statistics unknown%s\n", a, idx)
			case isSet:
				fmt.Fprintf(&b, "  .%s: set-valued, avg %.1f elems%s%s\n", a, avg, hist, idx)
			default:
				fmt.Fprintf(&b, "  .%s: %d distinct%s%s\n", a, t.Distinct[a], hist, idx)
			}
		}
	}
	return b.String()
}

// distinctCounter counts distinct values exactly: values are chained by hash
// and disambiguated with Equal, so hash collisions do not inflate the count.
// Each value carries a reference count so deletes can retire a value once
// its last row is gone (remove) — an NDV sketch could not support that.
//
// Slot s (1-based) is vals[s-1] with refs[s-1] and the chain link next[s-1];
// heads maps a hash to the first slot of its chain. Nothing is allocated per
// value — vals holds the rows' own values, the rest is pointer-free — and a
// retired slot is threaded onto the free list through next and reused, so
// insert/delete churn of never-repeated values keeps the slices at the live
// count.
type distinctCounter struct {
	heads map[uint64]int32
	vals  []value.Value
	refs  []int32
	next  []int32
	free  int32 // first free slot, 0 = none
	n     int
}

// newCounter returns the counter of vals, which are in canonical order with
// their runs of Compare-equal values ending at ends (value.SortRuns): one slot
// per run, holding the run's length as its reference count — the state
// adding the values one by one reaches, with the slots in another order.
// A run of a kind whose Compare-equal values may differ under Equal or Hash
// (floats, tuples) is added value by value, so that still holds.
func newCounter(vals []value.Value, ends []int) *distinctCounter {
	c := &distinctCounter{
		heads: make(map[uint64]int32, len(ends)),
		vals:  make([]value.Value, 0, len(ends)),
		refs:  make([]int32, 0, len(ends)),
		next:  make([]int32, 0, len(ends)),
	}
	start := 0
	for _, end := range ends {
		if v := vals[start]; value.ExactKind(v.Kind()) {
			c.insert(v, value.Hash(v), int32(end-start))
		} else {
			for _, v := range vals[start:end] {
				c.add(v)
			}
		}
		start = end
	}
	return c
}

func (c *distinctCounter) add(v value.Value) {
	h := value.Hash(v)
	for s := c.heads[h]; s != 0; s = c.next[s-1] {
		if value.Equal(c.vals[s-1], v) {
			c.refs[s-1]++
			return
		}
	}
	c.insert(v, h, 1)
}

// insert gives v, which no slot holds, a slot with refs references.
func (c *distinctCounter) insert(v value.Value, h uint64, refs int32) {
	s := c.free
	if s != 0 {
		c.free = c.next[s-1]
		c.vals[s-1], c.refs[s-1] = v, refs
	} else {
		c.vals, c.refs, c.next = append(c.vals, v), append(c.refs, refs), append(c.next, 0)
		s = int32(len(c.vals))
	}
	c.next[s-1], c.heads[h] = c.heads[h], s
	c.n++
}

// remove drops one reference to v, retiring the value (and decrementing the
// distinct count) when no row carries it anymore. Removing a value that was
// never added is a no-op: the live state may have been seeded before the row
// being unabsorbed was scanned, and statistics tolerate approximation.
func (c *distinctCounter) remove(v value.Value) {
	h := value.Hash(v)
	for prev, s := int32(0), c.heads[h]; s != 0; prev, s = s, c.next[s-1] {
		if !value.Equal(c.vals[s-1], v) {
			continue
		}
		if c.refs[s-1]--; c.refs[s-1] > 0 {
			return
		}
		switch {
		case prev != 0:
			c.next[prev-1] = c.next[s-1]
		case c.next[s-1] != 0:
			c.heads[h] = c.next[s-1]
		default:
			delete(c.heads, h)
		}
		c.vals[s-1], c.next[s-1], c.free = nil, c.free, s
		c.n--
		return
	}
}

// liveTableStats is the mutable per-extent collection state: exact distinct
// counters, live histograms, and set-shape accumulators, updated in place as
// rows arrive. Classification into scalar / set-valued / mixed happens at
// publication time from the accumulators, so the live form never has to
// re-decide anything on the write path. Guarded by Store.statsMu.
type liveTableStats struct {
	rows     int
	counters map[string]*distinctCounter
	hist     map[string]*stats.Histogram // scalar attrs: value distribution
	elemHist map[string]*stats.Histogram // set attrs: pooled element distribution
	elems    map[string]int              // pooled element count per set attr
	setRows  map[string]int              // rows carrying the attr as a set
}

func newLiveTableStats() *liveTableStats {
	return &liveTableStats{
		counters: map[string]*distinctCounter{},
		hist:     map[string]*stats.Histogram{},
		elemHist: map[string]*stats.Histogram{},
		elems:    map[string]int{},
		setRows:  map[string]int{},
	}
}

// absorb folds one row into the live state.
func (lt *liveTableStats) absorb(obj *value.Tuple) {
	lt.rows++
	for i := 0; i < obj.Len(); i++ {
		name, v := obj.At(i)
		if set, ok := v.(*value.Set); ok {
			lt.setRows[name]++
			lt.elems[name] += set.Len()
			h := lt.elemHist[name]
			if h == nil {
				h = &stats.Histogram{}
				lt.elemHist[name] = h
			}
			for _, e := range set.Elems() {
				h.Absorb(e)
			}
			continue
		}
		c := lt.counters[name]
		if c == nil {
			c = &distinctCounter{heads: map[uint64]int32{}}
			lt.counters[name] = c
		}
		c.add(v)
		h := lt.hist[name]
		if h == nil {
			h = &stats.Histogram{}
			lt.hist[name] = h
		}
		h.Absorb(v)
	}
}

// unabsorb removes one row from the live state — the inverse of absorb, used
// by Delete and Update.
func (lt *liveTableStats) unabsorb(obj *value.Tuple) {
	if lt.rows > 0 {
		lt.rows--
	}
	for i := 0; i < obj.Len(); i++ {
		name, v := obj.At(i)
		if set, ok := v.(*value.Set); ok {
			if lt.setRows[name] > 0 {
				lt.setRows[name]--
			}
			lt.elems[name] -= set.Len()
			if lt.elems[name] < 0 {
				lt.elems[name] = 0
			}
			if h := lt.elemHist[name]; h != nil {
				for _, e := range set.Elems() {
					h.Unabsorb(e)
				}
			}
			continue
		}
		if c := lt.counters[name]; c != nil {
			c.remove(v)
		}
		if h := lt.hist[name]; h != nil {
			h.Unabsorb(v)
		}
	}
}

// unabsorbStats removes a deleted (or pre-update) row from the live
// statistics. It marks the published stats stale but deliberately does not
// advance sinceEpoch: the insert-driven drift counter stays an insert
// counter, and replanning after heavy deletes is the runtime-feedback loop's
// job (the serving engine compares actual operator cardinalities against
// the cached plan's estimates and advances the epoch itself — see
// AdvanceStatsEpoch). Caller holds the writer lock.
func (s *Store) unabsorbStats(extent string, obj *value.Tuple) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	if lt := s.live[extent]; lt != nil {
		lt.unabsorb(obj)
		s.statsDirty = true
	}
}

// AdvanceStatsEpoch bumps the statistics epoch unconditionally — the hook
// the serving layer's runtime-feedback loop uses when execution proves the
// cached estimates wrong (q-error beyond threshold). Every plan cached at
// an older epoch re-plans on its next use against freshly published
// statistics.
func (s *Store) AdvanceStatsEpoch() {
	s.statsEpoch.Add(1)
}

// absorbStats folds a freshly inserted row into the live statistics (if any
// have been collected) and advances the stats epoch when the extent has
// drifted materially since the last bump. Caller (Insert) holds the writer
// lock; rows is the extent's row count including this row.
func (s *Store) absorbStats(extent string, obj *value.Tuple, rows int) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	if lt := s.live[extent]; lt != nil {
		lt.absorb(obj)
		s.statsDirty = true
	}
	s.sinceEpoch[extent]++
	floor := epochRowFloor
	if frac := int(epochRowFrac * float64(s.rowsAtEpoch[extent])); frac > floor {
		floor = frac
	}
	if s.sinceEpoch[extent] >= floor {
		s.sinceEpoch[extent] = 0
		s.rowsAtEpoch[extent] = rows
		s.statsEpoch.Add(1)
	}
}

// StatsEpoch reports the store's statistics epoch: a counter that advances
// when collected statistics have drifted enough to justify re-planning (see
// the epochRow constants) or when an index is created or replaced. The
// serving layer keys its plan cache on it.
func (s *Store) StatsEpoch() uint64 { return s.statsEpoch.Load() }

// buildLive performs the one full collection scan, populating the live
// per-extent state from the current head version. It reads the raw object
// table rather than Table so collection does not perturb the I/O meters or
// the materialization cache. Caller holds both the writer lock (so no
// insert can land between the scan and the live state becoming absorbable)
// and statsMu.
func (s *Store) buildLive() {
	v := s.head.Load()
	live := map[string]*liveTableStats{}
	var ends []int
	for _, ext := range s.cat.Extents() {
		lt := newLiveTableStats()
		attrs := s.scanExtent(v.extents[ext], v.seq, lt)
		// Each attribute is sorted once; its histogram and its distinct
		// counter are both read off the same runs of equal values. Later
		// rows are absorbed incrementally.
		for _, a := range attrs {
			if len(a.vals) > 0 {
				ends = value.SortRuns(ends[:0], a.vals)
				lt.hist[a.name] = stats.FromRuns(a.vals, ends, stats.DefaultBuckets)
				lt.counters[a.name] = newCounter(a.vals, ends)
			}
			if len(a.elems) > 0 {
				ends = value.SortRuns(ends[:0], a.elems)
				lt.elemHist[a.name] = stats.FromRuns(a.elems, ends, stats.DefaultBuckets)
			}
		}
		live[ext] = lt
	}
	s.live = live
}

// attrScan is one attribute's share of an extent's collection scan: its
// scalar values across the rows, the elements of its sets pooled, and the
// counts they are allocated at.
type attrScan struct {
	name                  string
	vals, elems           []value.Value
	scalars, sets, nelems int
}

// scanExtent reads the rows oids name at seq, sets lt's row and set-shape
// tallies, and returns every attribute's values. A row's attributes are
// matched to their attrScan once per row shape, and the value slices are
// allocated at their final size from a first pass that counts them.
func (s *Store) scanExtent(oids []value.OID, seq uint64, lt *liveTableStats) []*attrScan {
	var attrs []*attrScan
	slotsOf := map[*value.Shape][]*attrScan{}
	resolve := func(shape *value.Shape) []*attrScan {
		sl := make([]*attrScan, shape.Len())
		for i, name := range shape.Names() {
			for _, a := range attrs {
				if a.name == name {
					sl[i] = a
				}
			}
			if sl[i] == nil {
				sl[i] = &attrScan{name: name}
				attrs = append(attrs, sl[i])
			}
		}
		slotsOf[shape] = sl
		return sl
	}
	type row struct {
		obj   *value.Tuple
		slots []*attrScan
	}
	rows := make([]row, 0, len(oids))
	for _, oid := range oids {
		obj, ok := s.objectAt(oid, seq)
		if !ok {
			continue
		}
		sl, ok := slotsOf[obj.Shape]
		if !ok {
			sl = resolve(obj.Shape)
		}
		rows = append(rows, row{obj, sl})
		for i, a := range sl {
			if _, av := obj.At(i); av.Kind() == value.KindSet {
				a.sets++
				a.nelems += av.(*value.Set).Len()
			} else {
				a.scalars++
			}
		}
	}
	lt.rows = len(rows)
	for _, a := range attrs {
		a.vals = make([]value.Value, 0, a.scalars)
		a.elems = make([]value.Value, 0, a.nelems)
		if a.sets > 0 {
			lt.setRows[a.name], lt.elems[a.name] = a.sets, a.nelems
		}
	}
	for _, r := range rows {
		for i, a := range r.slots {
			if _, av := r.obj.At(i); av.Kind() == value.KindSet {
				a.elems = append(a.elems, av.(*value.Set).Elems()...)
			} else {
				a.vals = append(a.vals, av)
			}
		}
	}
	return attrs
}

// publishStats derives an immutable DBStats from the live state: attributes
// are classified (scalar / set-valued / mixed) from the accumulators and
// histograms are deep-copied, so the published object never changes under a
// planner holding it while inserts keep absorbing. Caller holds statsMu.
func (s *Store) publishStats() *DBStats {
	db := &DBStats{Tables: map[string]TableStats{}, Epoch: s.statsEpoch.Load()}
	for _, ext := range s.cat.Extents() {
		lt := s.live[ext]
		ts := TableStats{
			Rows:       lt.rows,
			Distinct:   map[string]int{},
			AvgSetSize: map[string]float64{},
		}
		mixed := map[string]bool{}
		for name, c := range lt.counters {
			if lt.setRows[name] > 0 {
				// Set-valued in some rows, scalar in others: a Distinct
				// count over just the scalar rows would be an undercount
				// presented as exact. Record the attribute as unknown.
				mixed[name] = true
				continue
			}
			ts.Distinct[name] = c.n
		}
		for name, rows := range lt.setRows {
			if mixed[name] {
				continue
			}
			// Only attributes that are sets in every row count as set-valued;
			// sets in only some rows (absent elsewhere) are unknown too.
			if rows == ts.Rows && rows > 0 {
				ts.AvgSetSize[name] = float64(lt.elems[name]) / float64(rows)
			} else if rows > 0 {
				mixed[name] = true
			}
		}
		for name := range ts.Distinct {
			if h := lt.hist[name]; h != nil && h.Rows > 0 {
				if ts.Hist == nil {
					ts.Hist = map[string]*stats.Histogram{}
				}
				ts.Hist[name] = h.Clone()
			}
		}
		for name := range ts.AvgSetSize {
			if h := lt.elemHist[name]; h != nil && h.Rows > 0 {
				if ts.ElemHist == nil {
					ts.ElemHist = map[string]*stats.Histogram{}
				}
				ts.ElemHist[name] = h.Clone()
			}
		}
		for name := range mixed {
			ts.Mixed = append(ts.Mixed, name)
		}
		sort.Strings(ts.Mixed)
		if idxs := s.IndexedAttrs(ext); len(idxs) > 0 {
			ts.Indexes = map[string]string{}
			for attr, kind := range idxs {
				ts.Indexes[attr] = kind.String()
			}
		}
		db.Tables[ext] = ts
	}
	s.statsCache = db
	s.statsDirty = false
	return db
}

// Analyze returns current database statistics. The first call scans every
// extent and seeds the live collection state; afterwards Insert maintains
// that state incrementally and Analyze merely publishes an immutable copy,
// memoized so repeated calls between mutations return the same *DBStats
// pointer (and the same histograms — the published copy never mutates).
func (s *Store) Analyze() *DBStats {
	s.statsMu.Lock()
	if s.statsCache != nil && !s.statsDirty {
		db := s.statsCache
		s.statsMu.Unlock()
		return db
	}
	if s.live != nil {
		db := s.publishStats()
		s.statsMu.Unlock()
		return db
	}
	s.statsMu.Unlock()
	// First collection: the scan must not race Insert's absorb path — a row
	// published after the scan started but absorbed before s.live existed
	// would be lost forever. Taking the writer lock (same order as Insert:
	// mu, then statsMu) closes that window; the double-check handles a
	// concurrent Analyze that built the live state first.
	s.mu.Lock()
	s.statsMu.Lock()
	if s.live == nil {
		s.buildLive()
	}
	db := s.publishStats()
	s.statsMu.Unlock()
	s.mu.Unlock()
	return db
}
