package storage

import (
	"sort"

	"repro/internal/stats"
	"repro/internal/value"
)

// The reference collection: the first Analyze as it ran before it sorted
// each attribute once — a distinct counter fed row by row, every value
// gathered into a map of slices, and each histogram built by refEquiDepth.
// TestAnalyzeMatchesReference and TestBulkCountersMaintainLikeRowByRow
// (analyze_reference_test.go) hold the single typed pass to it.

// SeedReferenceStats replaces s's live statistics with the reference
// collection of its current rows, as a first Analyze would have seeded
// them; the next Analyze publishes them.
func SeedReferenceStats(s *Store) {
	s.mu.Lock()
	s.statsMu.Lock()
	s.live = referenceLive(s)
	s.statsDirty = true
	s.statsMu.Unlock()
	s.mu.Unlock()
}

func referenceLive(s *Store) map[string]*liveTableStats {
	v := s.head.Load()
	live := map[string]*liveTableStats{}
	for _, ext := range s.cat.Extents() {
		lt := newLiveTableStats()
		vals := map[string][]value.Value{}  // scalar values per attr, all rows
		elems := map[string][]value.Value{} // pooled set elements per attr
		for _, oid := range v.extents[ext] {
			obj, ok := s.objectAt(oid, v.seq)
			if !ok {
				continue
			}
			lt.rows++
			for i := 0; i < obj.Len(); i++ {
				name, av := obj.At(i)
				if set, ok := av.(*value.Set); ok {
					lt.setRows[name]++
					lt.elems[name] += set.Len()
					elems[name] = append(elems[name], set.Elems()...)
					continue
				}
				c := lt.counters[name]
				if c == nil {
					c = &distinctCounter{heads: map[uint64]int32{}}
					lt.counters[name] = c
				}
				c.add(av)
				vals[name] = append(vals[name], av)
			}
		}
		for name, vs := range vals {
			if h := refEquiDepth(vs, stats.DefaultBuckets); h != nil {
				lt.hist[name] = h
			}
		}
		for name, vs := range elems {
			if h := refEquiDepth(vs, stats.DefaultBuckets); h != nil {
				lt.elemHist[name] = h
			}
		}
		live[ext] = lt
	}
	return live
}

// refEquiDepth is stats.NewEquiDepth as it was: sort.Slice over
// value.Compare, and runs of equal values found by value.Compare.
func refEquiDepth(vals []value.Value, maxBuckets int) *stats.Histogram {
	if len(vals) == 0 {
		return nil
	}
	sort.Slice(vals, func(i, j int) bool { return value.Compare(vals[i], vals[j]) < 0 })
	depth := (len(vals) + maxBuckets - 1) / maxBuckets
	h := &stats.Histogram{Rows: len(vals)}
	var cur *stats.Bucket
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && value.Compare(vals[j], vals[i]) == 0 {
			j++
		}
		run := j - i
		if cur == nil || cur.Rows >= depth || (cur.Rows > 0 && run >= depth) {
			h.Buckets = append(h.Buckets, stats.Bucket{Lo: vals[i], Hi: vals[i]})
			cur = &h.Buckets[len(h.Buckets)-1]
		}
		cur.Hi = vals[i]
		cur.Rows += run
		cur.NDV++
		i = j
	}
	return h
}
