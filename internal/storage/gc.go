// Snapshot garbage collection. Deletes and updates leave superseded object
// states on their version chains and stale entries in the shared indexes
// and the materialization cache so that pinned snapshots keep reading the
// past; none of it is reclaimed automatically by Go because the chains stay
// reachable from the object table. GC computes the horizon — the oldest seq
// any live snapshot still pins — and prunes everything no snapshot at or
// above the horizon can observe: chain states superseded at the horizon,
// objects dead at every reachable version (removed from the object table
// and swept out of their extent's indexes), and cached materializations
// that no longer correspond to the current extent contents. A long-running
// server triggers it automatically every SetAutoGC mutations; unreleased
// snapshots are never corrupted — they only hold the horizon back.
package storage

import "repro/internal/value"

// GCStats reports what one collection reclaimed.
type GCStats struct {
	// Horizon is the seq the collection pruned up to: the oldest pinned
	// snapshot's seq, or the head seq when nothing was pinned.
	Horizon uint64
	// PrunedStates counts superseded object states unlinked from version
	// chains.
	PrunedStates int
	// RemovedObjects counts objects removed from the object table entirely
	// (deleted before the horizon, unreachable by every live snapshot).
	RemovedObjects int
	// PrunedIndexOIDs counts index slots swept for removed objects.
	PrunedIndexOIDs int
	// DroppedMaterializations counts stale extent materialization cache
	// entries released.
	DroppedMaterializations int
}

// SetAutoGC sets the automatic collection threshold: a GC runs after every n
// deletes/updates (default DefaultGCEvery); n <= 0 disables automatic
// collection, leaving reclamation to explicit GC calls.
func (s *Store) SetAutoGC(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gcEvery = n
}

// GC reclaims every object state, index slot and cached materialization
// that no live snapshot can reach. It is safe to run concurrently with
// readers and pinned snapshots: only state strictly below the oldest pin is
// touched. Writes are blocked for the duration (GC holds the writer lock).
func (s *Store) GC() GCStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gcLocked()
}

// gcLocked is GC under an already-held writer lock (the auto-trigger runs
// inside Delete/Update).
func (s *Store) gcLocked() GCStats {
	head := s.head.Load()
	horizon := head.seq
	s.pinMu.Lock()
	for seq := range s.pins {
		if seq < horizon {
			horizon = seq
		}
	}
	s.pinMu.Unlock()
	st := GCStats{Horizon: horizon}

	// Pass 1: truncate chains below the horizon. The base — the newest state
	// with born <= horizon — is what every snapshot at or above the horizon
	// resolves to; nothing reachable ever dereferences base.prev, so the
	// truncation is safe under concurrent chain walks. A chain whose base is
	// a tombstone at the head of the chain (nothing can follow a tombstone —
	// dead objects reject further writes) is dead at every reachable
	// version: the object leaves the table, and its extent's indexes are
	// swept below.
	removed := map[string][]value.OID{}
	s.objects.each(func(oid value.OID, node *objVersion) {
		base := node.at(horizon)
		if base == nil {
			return // born entirely after the horizon: all states live
		}
		for n := base.prev; n != nil; n = n.prev {
			st.PrunedStates++
		}
		base.prev = nil
		if base == node && base.obj == nil {
			s.objects.store(oid, nil)
			st.RemovedObjects++
			removed[base.extent] = append(removed[base.extent], oid)
		}
	})

	// Pass 2: sweep removed oids out of their extent's indexes.
	if len(removed) > 0 {
		s.idxMu.Lock()
		for ext, oids := range removed {
			dead := make(map[value.OID]bool, len(oids))
			for _, oid := range oids {
				dead[oid] = true
			}
			for _, idx := range s.indexes[ext] {
				st.PrunedIndexOIDs += idx.prune(dead)
			}
		}
		s.idxMu.Unlock()
	}

	// Pass 3: drop materializations that no longer describe the current
	// extent contents (their oid list is not a live prefix of the head's).
	// They were kept alive only for old snapshots; any below the horizon are
	// unreachable now, and any above will be rebuilt on demand.
	s.matMu.Lock()
	for name, e := range s.mat {
		if !sharesPrefix(e.oids, head.extents[name]) {
			delete(s.mat, name)
			st.DroppedMaterializations++
		}
	}
	s.matMu.Unlock()
	// Columnar projections are derived from the same oid lists and go stale
	// under the same rule.
	s.colMu.Lock()
	for name, e := range s.colProjs {
		if !sharesPrefix(e.oids, head.extents[name]) {
			delete(s.colProjs, name)
			st.DroppedMaterializations++
		}
	}
	s.colMu.Unlock()

	s.mutations = 0
	return st
}

// prune removes dead oids from every entry of the index, dropping entries
// emptied entirely, and reports the number of slots removed. Caller holds
// the index write lock.
func (idx *extIndex) prune(dead map[value.OID]bool) int {
	pruned := 0
	filter := func(e *indexEntry) bool {
		kept := e.oids[:0]
		for _, oid := range e.oids {
			if dead[oid] {
				pruned++
				continue
			}
			kept = append(kept, oid)
		}
		e.oids = kept
		return len(kept) > 0
	}
	if idx.kind == HashIndex {
		for h, bucket := range idx.buckets {
			kept := bucket[:0]
			for _, e := range bucket {
				if filter(e) {
					kept = append(kept, e)
				}
			}
			if len(kept) == 0 {
				delete(idx.buckets, h)
			} else {
				idx.buckets[h] = kept
			}
		}
		return pruned
	}
	kept := idx.entries[:0]
	for _, e := range idx.entries {
		if filter(e) {
			kept = append(kept, e)
		}
	}
	idx.entries = kept
	return pruned
}
