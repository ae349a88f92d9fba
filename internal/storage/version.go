// Multi-version extent snapshots. The store publishes an immutable version
// per write: a reader pins one (Snapshot) and keeps scanning it while later
// writes publish successors — the "populate, then query" restriction the
// original store had is gone. Versions share structure: the object table
// resolves each oid by page arithmetic to a version chain (newest first;
// insert-only objects have a single-node chain), and each version's extent
// oid-lists share their backing arrays with their predecessors where
// possible — only an insert's append or a delete/update's fresh slice
// replaces the touched extent's slice header. Publishing is one atomic
// pointer store; pinning is one atomic load plus a reference count that
// holds back the garbage collector (gc.go) until the snapshot is released.
package storage

import (
	"fmt"
	"sync/atomic"

	"repro/internal/value"
)

// version is one immutable store state. seq orders versions; nextOID is the
// allocation horizon — every oid allocated before the version was published
// is < nextOID (oids are monotonic and never reused, so the horizon is a
// cheap visibility pre-filter; the per-object version chain is the full
// rule).
type version struct {
	seq     uint64
	nextOID value.OID
	extents map[string][]value.OID
}

// objVersion is one state of one object in its version chain, newest first.
// born is the seq of the version that published this state; obj == nil marks
// a tombstone (the object was deleted at born). A snapshot at seq S sees the
// first node with born <= S. Chains are immutable except for GC truncation
// of links no live snapshot can reach.
type objVersion struct {
	extent string
	obj    *value.Tuple // nil = tombstone
	born   uint64
	prev   *objVersion
}

// objPageBits sizes the object table's pages at 1<<objPageBits oids (a unit
// of the in-memory oid index, unrelated to the I/O page model's
// ObjectsPerPage).
const objPageBits = 10

// maxOID bounds the oids LoadJSON accepts, and so the directory (one pointer
// per page below the highest oid) at 2 MiB. Allocation never gets near it.
const maxOID value.OID = 1 << 28

type objPage [1 << objPageBits]atomic.Pointer[objVersion]

// objTable resolves an oid to the head of its version chain: page
// oid>>objPageBits of a copy-on-write directory, slot oid&(1<<objPageBits-1)
// of the page — a shift, a mask and two atomic loads, no lock, no search.
// Oids are dense (allocated monotonically from 1, never reused), so pages
// fill up; only LoadJSON can leave holes, as nil pages. Writers hold the
// store's writer lock; an unallocated oid is a plain not-found.
type objTable struct {
	dir atomic.Pointer[[]*objPage]
}

func (t *objTable) pages() []*objPage {
	if d := t.dir.Load(); d != nil {
		return *d
	}
	return nil
}

// load returns the head of oid's chain, or nil.
func (t *objTable) load(oid value.OID) *objVersion {
	d := t.pages()
	if p := uint64(oid) >> objPageBits; p < uint64(len(d)) && d[p] != nil {
		return d[p][oid&(1<<objPageBits-1)].Load()
	}
	return nil
}

// store sets oid's chain head (nil removes the object). A missing page is
// added to a copy of the directory, which is then published, so a reader
// never sees a directory slot change. Caller holds the writer lock.
func (t *objTable) store(oid value.OID, n *objVersion) {
	d, p := t.pages(), int(oid>>objPageBits)
	if p >= len(d) || d[p] == nil {
		nd := make([]*objPage, max(len(d), p+1))
		copy(nd, d)
		nd[p], d = new(objPage), nd
		t.dir.Store(&d)
	}
	d[p][oid&(1<<objPageBits-1)].Store(n)
}

// each calls fn on every stored oid in ascending order with its chain head.
// fn may store to the oid it is given.
func (t *objTable) each(fn func(value.OID, *objVersion)) {
	for p, pg := range t.pages() {
		if pg == nil {
			continue
		}
		for i := range pg {
			if n := pg[i].Load(); n != nil {
				fn(value.OID(p<<objPageBits|i), n)
			}
		}
	}
}

// at resolves the chain to the state visible at seq, or nil when the object
// did not exist yet.
func (n *objVersion) at(seq uint64) *objVersion {
	for ; n != nil; n = n.prev {
		if n.born <= seq {
			return n
		}
	}
	return nil
}

// cowExtents derives the successor extent map for an insert: a shallow copy
// with the touched extent's oid list extended. The append may write one slot
// past the predecessor's length into a shared backing array — invisible to
// readers of the old version, whose slice header bounds them to the old
// prefix.
func cowExtents(old map[string][]value.OID, extent string, oid value.OID) map[string][]value.OID {
	next := make(map[string][]value.OID, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[extent] = append(next[extent], oid)
	return next
}

// replaceExtent derives the successor extent map for a delete or update: the
// touched extent's list is rebuilt into a fresh backing array (with oid
// dropped when drop is set), so the materialization cache's pointer-identity
// check (store.go) can tell mutated lists from extended ones.
func replaceExtent(old map[string][]value.OID, extent string, oid value.OID, drop bool) map[string][]value.OID {
	next := make(map[string][]value.OID, len(old))
	for k, v := range old {
		next[k] = v
	}
	src := old[extent]
	dst := make([]value.OID, 0, len(src))
	for _, o := range src {
		if drop && o == oid {
			continue
		}
		dst = append(dst, o)
	}
	next[extent] = dst
	return next
}

// Snapshot is a pinned immutable view of the store: all reads — extent
// scans, oid dereferences, index probes — answer as of the pinned version,
// no matter how many writes commit concurrently. It implements the
// evaluator's DB interface and the executor's IndexedDB capability, so whole
// physical plans run against one snapshot. I/O metering is shared with the
// owning store. A Snapshot is safe for concurrent use.
//
// A Snapshot holds a reference that keeps its version's object states and
// cached materializations reachable; call Release when done with it so the
// garbage collector can reclaim superseded versions. An unreleased snapshot
// is never unsafe — it only holds back reclamation.
type Snapshot struct {
	st       *Store
	v        *version
	epoch    uint64
	released atomic.Bool
}

// Snapshot pins the current version. The returned view is immutable; the
// store remains free to accept writes.
func (s *Store) Snapshot() *Snapshot {
	s.pinMu.Lock()
	v := s.head.Load()
	s.pins[v.seq]++
	s.pinMu.Unlock()
	return &Snapshot{st: s, v: v, epoch: s.statsEpoch.Load()}
}

// Release drops the snapshot's pin on its version, allowing GC to reclaim
// object states and cache entries only this snapshot could still read.
// Release is idempotent and safe to call concurrently.
func (sn *Snapshot) Release() {
	if sn.released.Swap(true) {
		return
	}
	s := sn.st
	s.pinMu.Lock()
	if n := s.pins[sn.v.seq]; n <= 1 {
		delete(s.pins, sn.v.seq)
	} else {
		s.pins[sn.v.seq] = n - 1
	}
	s.pinMu.Unlock()
}

// Seq reports the pinned version's sequence number: one write (insert,
// delete, update) is one increment, so two snapshots compare by recency.
func (sn *Snapshot) Seq() uint64 { return sn.v.seq }

// StatsEpoch reports the statistics epoch observed when the snapshot was
// taken. The serving layer's plan cache keys prepared plans on it: a cached
// plan is reused while the epoch holds and re-planned once it drifts.
func (sn *Snapshot) StatsEpoch() uint64 { return sn.epoch }

// Lookup fetches an object's state as of the snapshot, metering the access
// (see Store.Lookup for the page model). Deleted objects and objects born
// after the pin report not-found.
func (sn *Snapshot) Lookup(oid value.OID) (*value.Tuple, bool) {
	if oid >= sn.v.nextOID {
		return nil, false
	}
	return sn.st.lookupAt(oid, sn.v.seq)
}

// Deref implements pointer dereferencing for the evaluator, failing loudly
// on oids dangling in this version.
func (sn *Snapshot) Deref(oid value.OID) (*value.Tuple, error) {
	obj, ok := sn.Lookup(oid)
	if !ok {
		return nil, fmt.Errorf("storage: dangling oid %v", oid)
	}
	return obj, nil
}

// Table returns the extent as of the snapshot as a set of tuples. Callers
// must treat the set as immutable. Materializations are cached per extent
// with copy-on-write extension (see Store.materialize), so consecutive
// versions pay for their delta, not the whole extent.
func (sn *Snapshot) Table(name string) (*value.Set, error) {
	oids, ok := sn.v.extents[name]
	if !ok {
		if _, known := sn.st.cat.ByExtent(name); !known {
			return nil, fmt.Errorf("storage: unknown base table %q", name)
		}
	}
	set := sn.st.materialize(name, oids, sn.v.seq)
	sn.st.meterScan(len(oids))
	return set, nil
}

// Size reports the number of objects the extent had at the pinned version.
func (sn *Snapshot) Size(extent string) int { return len(sn.v.extents[extent]) }

// OIDs returns the extent's oids at the pinned version, in insertion order.
func (sn *Snapshot) OIDs(extent string) []value.OID {
	return append([]value.OID(nil), sn.v.extents[extent]...)
}

// IndexLookup answers an equality probe as of the snapshot: the shared
// index (maintained incrementally across writes) is probed and every
// candidate is resolved through its version chain at the snapshot's seq and
// re-verified against the key, so a pinned reader never observes a row a
// concurrent writer added, removed, or rewrote.
func (sn *Snapshot) IndexLookup(extent, attr string, key value.Value) ([]value.Value, error) {
	return sn.st.indexLookup(extent, attr, key, sn.v.nextOID, sn.v.seq)
}

// IndexRange answers a range probe as of the snapshot (ordered indexes
// only); see IndexLookup for the visibility rule.
func (sn *Snapshot) IndexRange(extent, attr string, lo, hi value.Value, loIncl, hiIncl bool) ([]value.Value, error) {
	return sn.st.indexRange(extent, attr, lo, hi, loIncl, hiIncl, sn.v.nextOID, sn.v.seq)
}
