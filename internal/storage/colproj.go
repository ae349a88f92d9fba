// Columnar projection reader for the batch executor. A projection decodes
// the referenced attributes of an extent once into typed slices (col.Proj);
// ColProj serves them snapshot-pinned — the rows are exactly the tuples the
// snapshot's Table would return, resolved through the same version chains,
// so batches respect MVCC visibility under concurrent deletes and updates.
//
// Projections are cached per extent like materializations (store.mat): an
// exact hit (same length, same backing oid array, attributes already
// decoded) is served as-is; anything else is rebuilt from the cached one,
// decoding only the rows a write replaced and the attributes it lacked. The
// rebuild keeps the union of the requested and previously decoded
// attributes, so pipelines alternating attribute sets converge on one cached
// projection instead of thrashing.
package storage

import (
	"fmt"

	"repro/internal/col"
	"repro/internal/value"
)

// colEntry is one cached columnar projection, identified like matEntry by
// the oid list it was built from and stamped with its version seq.
type colEntry struct {
	seq  uint64
	oids []value.OID
	proj *col.Proj
}

// ColProj returns a columnar projection of the extent as of the snapshot,
// with (at least) the named attributes decoded. The projection is shared and
// immutable; the scan is metered like Table.
func (sn *Snapshot) ColProj(extent string, attrs []string) (*col.Proj, error) {
	oids, ok := sn.v.extents[extent]
	if !ok {
		if _, known := sn.st.cat.ByExtent(extent); !known {
			return nil, fmt.Errorf("storage: unknown base table %q", extent)
		}
	}
	proj := sn.st.colProj(extent, oids, sn.v.seq, attrs)
	sn.st.meterScan(len(oids))
	return proj, nil
}

// ColProj is the latest-version convenience form (pins and releases
// internally, like Table).
func (s *Store) ColProj(extent string, attrs []string) (*col.Proj, error) {
	sn := s.Snapshot()
	defer sn.Release()
	return sn.ColProj(extent, attrs)
}

// colProj serves the per-extent projection cache. The rows are the
// snapshot's objects in extent order, the tuples Table returns. A miss
// patches the cached projection: each chunk of rows a write left alone is
// shared, so a write costs the next reader the chunks it touched (an insert
// or an update one chunk, a delete the chunks from its row on). The cache
// lock is not held while a projection is built.
func (s *Store) colProj(name string, oids []value.OID, seq uint64, attrs []string) *col.Proj {
	s.colMu.Lock()
	e := s.colProjs[name]
	s.colMu.Unlock()
	if e.proj != nil && len(e.oids) == len(oids) && sharesPrefix(e.oids, oids) &&
		hasAttrs(e.proj, attrs) {
		return e.proj
	}
	prev, union := e.proj, attrs
	if prev == nil {
		prev = col.New(name, nil, nil)
	} else {
		union = unionAttrs(prev.Attrs(), attrs)
	}
	// Every oid of a version's extent is live at that version; should one
	// not be, the projection is built from the live rows alone.
	dead := false
	proj := col.Patch(prev, len(oids), func(i int) (value.Value, bool) {
		obj, ok := s.objectAt(oids[i], seq)
		dead = dead || !ok
		if !ok {
			return value.Null{}, false
		}
		return obj, i < prev.Len() && prev.Row(int32(i)) == value.Value(obj)
	}, union)
	if dead {
		proj = col.New(name, s.materialize(name, oids, seq).Elems(), union)
	}
	s.colMu.Lock()
	if cur := s.colProjs[name]; seq >= cur.seq || cur.proj == nil {
		s.colProjs[name] = colEntry{seq: seq, oids: oids, proj: proj}
	}
	s.colMu.Unlock()
	return proj
}

// hasAttrs reports whether every requested attribute is already decoded.
func hasAttrs(p *col.Proj, attrs []string) bool {
	for _, a := range attrs {
		if p.Col(a) == nil {
			return false
		}
	}
	return true
}

// unionAttrs merges two attribute lists preserving first-seen order.
func unionAttrs(have, want []string) []string {
	out := make([]string, 0, len(have)+len(want))
	seen := make(map[string]bool, len(have)+len(want))
	for _, lst := range [2][]string{have, want} {
		for _, a := range lst {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	return out
}
