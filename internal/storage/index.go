// Secondary indexes. The paper's optimizer "may choose from a number of
// different join processing strategies" (§5.1); Selinger-style access-path
// selection widens that choice below the join operators: with a secondary
// index on an extent attribute, a selective predicate or join key no longer
// forces a full extent scan. Two kinds are supported: a hash index answers
// equality probes, an ordered index additionally answers range probes.
// Indexes are built eagerly by CreateIndex and maintained incrementally:
// Insert and Update absorb the new row state under the index write lock
// instead of marking the index stale, so a long-lived server never pays a
// rebuild on the read path. One shared index answers for every version at
// once: entries accumulate the states of rows (deleted entries are pruned
// only by GC), and probes resolve each candidate through its version chain
// at the probing snapshot's seq and re-verify the key, so a pinned reader
// never observes a row a concurrent writer added, removed, or rewrote.
// Probes are safe for concurrent use, including concurrently with writes.
package storage

import (
	"fmt"
	"sort"

	"repro/internal/value"
)

// IndexKind enumerates the secondary index implementations.
type IndexKind int

const (
	// HashIndex buckets oids by key hash; it answers equality probes only.
	HashIndex IndexKind = iota + 1
	// OrderedIndex keeps (key, oids) entries sorted by value.Compare; it
	// answers both equality and range probes. It holds no NaN key, which
	// neither probe could match.
	OrderedIndex
)

// String names the kind the way Analyze reports it.
func (k IndexKind) String() string {
	switch k {
	case HashIndex:
		return "hash"
	case OrderedIndex:
		return "ordered"
	}
	return "unknown"
}

// indexEntry groups the oids of all objects sharing one key value.
type indexEntry struct {
	key  value.Value
	oids []value.OID
}

// extIndex is one secondary index over extent.attr. Exactly one of buckets
// (hash) or entries (ordered) is populated. buildErr records a failed build
// or absorption — an object lacking the indexed attribute — and poisons
// every probe until CreateIndex replaces the index, so an index access path
// fails exactly where the equivalent scan + field read would.
type extIndex struct {
	extent, attr string
	kind         IndexKind
	buildErr     error

	buckets map[uint64][]*indexEntry // hash kind: key hash → entries
	entries []*indexEntry            // ordered kind: sorted by key
}

// CreateIndex builds a secondary index on an extent attribute, replacing any
// existing index on the same attribute. Every object of the extent must
// carry the attribute: silently skipping incomplete rows would let an index
// plan succeed where the scan-based plan's field read errors, and the two
// must stay interchangeable. CreateIndex serializes with Insert (writer
// lock) so the eager build misses no row.
func (s *Store) CreateIndex(extent, attr string, kind IndexKind) error {
	if _, ok := s.cat.ByExtent(extent); !ok {
		return fmt.Errorf("storage: unknown extent %q", extent)
	}
	if kind != HashIndex && kind != OrderedIndex {
		return fmt.Errorf("storage: unknown index kind %d", kind)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := &extIndex{extent: extent, attr: attr, kind: kind}
	s.build(idx)
	if idx.buildErr != nil {
		return idx.buildErr
	}
	s.idxMu.Lock()
	if s.indexes == nil {
		s.indexes = map[string]map[string]*extIndex{}
	}
	if s.indexes[extent] == nil {
		s.indexes[extent] = map[string]*extIndex{}
	}
	s.indexes[extent][attr] = idx
	s.idxMu.Unlock()
	// Collected statistics record index kinds, so a memoized Analyze result
	// is stale the moment an index appears; a new access path can change the
	// optimal plan, so the stats epoch advances and cached plans re-plan.
	s.statsMu.Lock()
	s.statsDirty = true
	s.statsMu.Unlock()
	s.statsEpoch.Add(1)
	return nil
}

// EnsureIndexes creates hash indexes on the given extent attributes, keeping
// any index (of either kind) that already exists.
func (s *Store) EnsureIndexes(extent string, attrs ...string) error {
	for _, attr := range attrs {
		s.idxMu.RLock()
		_, exists := s.indexes[extent][attr]
		s.idxMu.RUnlock()
		if exists {
			continue
		}
		if err := s.CreateIndex(extent, attr, HashIndex); err != nil {
			return err
		}
	}
	return nil
}

// IndexedAttrs reports the indexed attributes of an extent and their kinds.
func (s *Store) IndexedAttrs(extent string) map[string]IndexKind {
	s.idxMu.RLock()
	defer s.idxMu.RUnlock()
	if len(s.indexes[extent]) == 0 {
		return nil
	}
	out := make(map[string]IndexKind, len(s.indexes[extent]))
	for attr, idx := range s.indexes[extent] {
		out[attr] = idx.kind
	}
	return out
}

// build populates a fresh index from the extent's version chains: every
// reachable state of every object — current, superseded by an update, or
// deleted — is indexed under its key, so a snapshot pinned before the build
// probes the states it can see (probes resolve candidates through the chain
// at their own seq and re-verify the key). One shared grouping pass buckets
// oids by key, then the ordered kind sorts the entries and drops the
// buckets. The index is not yet shared, so no lock is needed; the caller
// holds the writer lock so no chain grows during the scan.
func (s *Store) build(idx *extIndex) {
	type state struct {
		oid value.OID
		obj *value.Tuple
	}
	var states []state
	s.objects.each(func(oid value.OID, head *objVersion) {
		start := len(states)
		for n := head; n != nil; n = n.prev {
			if n.extent == idx.extent && n.obj != nil {
				states = append(states, state{oid: oid, obj: n.obj})
			}
		}
		// The chain walk yields newest-first; flip this oid's run so entry
		// oid lists end up oldest-first, in insertion order like the
		// incremental absorb path (each walks oids ascending).
		for i, j := start, len(states)-1; i < j; i, j = i+1, j-1 {
			states[i], states[j] = states[j], states[i]
		}
	})
	buckets := map[uint64][]*indexEntry{}
	var entries []*indexEntry
	for _, st := range states {
		v, ok := st.obj.Get(idx.attr)
		if !ok {
			idx.buildErr = fmt.Errorf("storage: cannot index %s.%s: object %v lacks the attribute",
				idx.extent, idx.attr, st.oid)
			return
		}
		h := value.Hash(v)
		var e *indexEntry
		for _, cand := range buckets[h] {
			if value.Equal(cand.key, v) {
				e = cand
				break
			}
		}
		if e == nil {
			e = &indexEntry{key: v}
			buckets[h] = append(buckets[h], e)
			entries = append(entries, e)
		}
		e.oids = append(e.oids, st.oid)
	}
	if idx.kind == OrderedIndex {
		idx.entries = sortEntries(buckets, entries)
	} else {
		idx.buckets = buckets
	}
}

// sortEntries returns the entries of an ordered index in canonical key
// order: their keys are sorted (value.Sort) and each key's entry is read back
// from its hash bucket, in which no other key is Equal to it. NaN keys are
// left out, here and in absorb: a NaN is Equal to nothing and unordered to
// everything, so neither probe could return it.
func sortEntries(buckets map[uint64][]*indexEntry, entries []*indexEntry) []*indexEntry {
	keys := make([]value.Value, 0, len(entries))
	for _, e := range entries {
		if !value.IsNaN(e.key) {
			keys = append(keys, e.key)
		}
	}
	value.Sort(keys)
	sorted := make([]*indexEntry, len(keys))
	for i, k := range keys {
		for _, e := range buckets[value.Hash(k)] {
			if value.Equal(e.key, k) {
				sorted[i] = e
				break
			}
		}
	}
	return sorted
}

// absorbIndexes folds one new object state into every index of its extent —
// the incremental replacement for invalidate-and-rebuild, called by Insert
// and Update. The caller holds the writer lock and has not yet published
// the new version: probes re-verify candidates through the version chain at
// their snapshot's seq, so the early absorption is invisible to pinned
// readers and guaranteed-visible to any snapshot taken after the publish.
// An object lacking an indexed attribute poisons that index, matching the
// eager build's contract.
func (s *Store) absorbIndexes(extent string, oid value.OID, obj *value.Tuple) {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	for _, idx := range s.indexes[extent] {
		if idx.buildErr != nil {
			continue
		}
		v, ok := obj.Get(idx.attr)
		if !ok {
			idx.buildErr = fmt.Errorf("storage: cannot index %s.%s: object %v lacks the attribute",
				idx.extent, idx.attr, oid)
			continue
		}
		idx.absorb(v, oid)
	}
}

// absorb inserts one (key, oid) pair. Caller holds the index write lock.
func (idx *extIndex) absorb(v value.Value, oid value.OID) {
	if idx.kind == HashIndex {
		h := value.Hash(v)
		for _, e := range idx.buckets[h] {
			if value.Equal(e.key, v) {
				e.oids = append(e.oids, oid)
				return
			}
		}
		if idx.buckets == nil {
			idx.buckets = map[uint64][]*indexEntry{}
		}
		idx.buckets[h] = append(idx.buckets[h], &indexEntry{key: v, oids: []value.OID{oid}})
		return
	}
	if value.IsNaN(v) {
		return
	}
	i := sort.Search(len(idx.entries), func(i int) bool {
		return value.Compare(idx.entries[i].key, v) >= 0
	})
	if i < len(idx.entries) && value.Equal(idx.entries[i].key, v) {
		idx.entries[i].oids = append(idx.entries[i].oids, oid)
		return
	}
	idx.entries = append(idx.entries, nil)
	copy(idx.entries[i+1:], idx.entries[i:])
	idx.entries[i] = &indexEntry{key: v, oids: []value.OID{oid}}
}

// probe runs f on an index under the read lock — f returns the entries
// whose oids are the candidates, as the index holds them — and takes the
// candidates below bound (the probing snapshot's allocation horizon). Each
// is resolved through its version chain at seq via the metered Lookup path
// (an index probe pays per-object I/O, unlike an extent scan's
// page-granular sweep) and its indexed attribute re-verified with match.
// The re-verification is what makes the shared index answer for every
// version at once: an entry may point at a row state the probing snapshot
// cannot see (deleted, or rewritten by an update), and the chain-resolved
// state either fails the match or resolves to nothing. Candidates are
// deduplicated — an updated row can appear under several keys of one range.
// The candidates are copied out under the lock, since GC prunes entries in
// place, and resolved after it; with first set the probe resolves them under
// the lock instead, stops at its first row, and copies nothing, so an
// existence probe costs the same on a key of any size.
func (s *Store) probe(extent, attr string, bound value.OID, seq uint64, first bool, match func(value.Value) bool, f func(*extIndex) ([]*indexEntry, error)) ([]value.Value, error) {
	s.idxMu.RLock()
	idx := s.indexes[extent][attr]
	if idx == nil {
		s.idxMu.RUnlock()
		return nil, fmt.Errorf("storage: no index on %s.%s", extent, attr)
	}
	if idx.buildErr != nil {
		err := idx.buildErr
		s.idxMu.RUnlock()
		return nil, err
	}
	entries, err := f(idx)
	var oids []value.OID
	var hit value.Value
scan:
	for _, e := range entries {
		for _, oid := range e.oids {
			switch {
			case oid >= bound:
			case !first:
				oids = append(oids, oid)
			default:
				if hit = s.verified(oid, attr, seq, match); hit != nil {
					break scan
				}
			}
		}
	}
	s.idxMu.RUnlock()
	if err != nil {
		return nil, err
	}
	s.indexProbes.Add(1)
	if first {
		if hit == nil {
			return nil, nil
		}
		return []value.Value{hit}, nil
	}
	out := make([]value.Value, 0, len(oids))
	var seen map[value.OID]bool
	if len(oids) > 1 {
		seen = make(map[value.OID]bool, len(oids))
	}
	for _, oid := range oids {
		if seen != nil {
			if seen[oid] {
				continue
			}
			seen[oid] = true
		}
		if obj := s.verified(oid, attr, seq, match); obj != nil {
			out = append(out, obj)
		}
	}
	return out, nil
}

// verified is the state of oid at seq if its attr satisfies match, else
// nil: nil for a row deleted at seq or born after it, and for one whose
// entry indexed a different state of the row.
func (s *Store) verified(oid value.OID, attr string, seq uint64, match func(value.Value) bool) value.Value {
	obj, ok := s.lookupAt(oid, seq)
	if !ok {
		return nil
	}
	if v, ok := obj.Get(attr); !ok || !match(v) {
		return nil
	}
	return obj
}

// indexLookup answers an equality probe with rows visible at (bound, seq),
// or with the first of them if first is set.
func (s *Store) indexLookup(extent, attr string, key value.Value, bound value.OID, seq uint64, first bool) ([]value.Value, error) {
	match := func(v value.Value) bool { return value.Equal(v, key) }
	return s.probe(extent, attr, bound, seq, first, match, func(idx *extIndex) ([]*indexEntry, error) {
		switch idx.kind {
		case HashIndex:
			bucket := idx.buckets[value.Hash(key)]
			for i, e := range bucket {
				if value.Equal(e.key, key) {
					return bucket[i : i+1], nil
				}
			}
			return nil, nil
		default:
			i := sort.Search(len(idx.entries), func(i int) bool {
				return value.Compare(idx.entries[i].key, key) >= 0
			})
			if i < len(idx.entries) && value.Equal(idx.entries[i].key, key) {
				return idx.entries[i : i+1], nil
			}
			return nil, nil
		}
	})
}

// indexRange answers a range probe (ordered indexes only) with rows visible
// at (bound, seq).
func (s *Store) indexRange(extent, attr string, lo, hi value.Value, loIncl, hiIncl bool, bound value.OID, seq uint64) ([]value.Value, error) {
	match := func(v value.Value) bool {
		// IEEE order: a NaN, stored or bound, satisfies no range.
		if value.IsNaN(v) || value.IsNaN(lo) || value.IsNaN(hi) {
			return false
		}
		if lo != nil {
			c := value.Compare(v, lo)
			if c < 0 || (c == 0 && !loIncl) {
				return false
			}
		}
		if hi != nil {
			c := value.Compare(v, hi)
			if c > 0 || (c == 0 && !hiIncl) {
				return false
			}
		}
		return true
	}
	return s.probe(extent, attr, bound, seq, false, match, func(idx *extIndex) ([]*indexEntry, error) {
		if idx.kind != OrderedIndex {
			return nil, fmt.Errorf("storage: range probe needs an ordered index on %s.%s (have %s)",
				extent, attr, idx.kind)
		}
		start := 0
		if lo != nil {
			start = sort.Search(len(idx.entries), func(i int) bool {
				c := value.Compare(idx.entries[i].key, lo)
				if loIncl {
					return c >= 0
				}
				return c > 0
			})
		}
		end := len(idx.entries)
		if hi != nil {
			end = sort.Search(len(idx.entries), func(i int) bool {
				c := value.Compare(idx.entries[i].key, hi)
				if hiIncl {
					return c > 0
				}
				return c >= 0
			})
		}
		return idx.entries[start:max(start, end)], nil
	})
}

// IndexLookup returns the objects of an extent whose indexed attribute
// equals key, in insertion order, as of the latest version. Both index
// kinds answer it.
func (s *Store) IndexLookup(extent, attr string, key value.Value) ([]value.Value, error) {
	sn := s.Snapshot()
	defer sn.Release()
	return sn.IndexLookup(extent, attr, key)
}

// IndexExists reports whether the extent holds an object whose indexed
// attribute equals key, as of the latest version.
func (s *Store) IndexExists(extent, attr string, key value.Value) (bool, error) {
	sn := s.Snapshot()
	defer sn.Release()
	return sn.IndexExists(extent, attr, key)
}

// IndexRange returns the objects whose indexed attribute falls in the range
// [lo, hi] (nil bound = unbounded; loIncl/hiIncl select open or closed
// ends) as of the latest version. It requires an ordered index.
func (s *Store) IndexRange(extent, attr string, lo, hi value.Value, loIncl, hiIncl bool) ([]value.Value, error) {
	sn := s.Snapshot()
	defer sn.Release()
	return sn.IndexRange(extent, attr, lo, hi, loIncl, hiIncl)
}
