// Package storage provides the in-memory object store that stands in for the
// disk-based OODB kernel assumed by the paper. Objects are complex tuples
// addressed by oid; each class extension ("base table") is the set of its
// objects, with set-valued attributes stored clustered with their owner (the
// paper's storage assumption in §3, which is what makes unnesting set-valued
// attributes undesirable).
//
// Substitution note (see DESIGN.md §2): the paper's cost arguments concern
// tuple- versus set-oriented algorithms on a paged store. We model pages as
// fixed-size groups of objects and meter object fetches and distinct page
// touches, so that benchmarks can report an I/O-shaped metric alongside wall
// time without simulating a 1994 disk.
package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/schema"
	"repro/internal/value"
)

// ObjectsPerPage is the clustering factor of the page model: oid o sits on
// page o / ObjectsPerPage.
const ObjectsPerPage = 32

// DefaultGCEvery is the default auto-GC trigger: a garbage collection runs
// after this many deletes/updates since the last one. See SetAutoGC.
const DefaultGCEvery = 1024

// Stats counts logical I/O since the last Reset.
type Stats struct {
	// ObjectReads counts individual object fetches by oid.
	ObjectReads int
	// PageReads counts page touches, where consecutive touches of the same
	// page as the previous fetch are free (sequential locality), modelling a
	// one-page buffer. A whole-extent scan (Table) counts one touch per page
	// of the extent — the meter models the logical I/O of the access path,
	// not the Go-level extent cache.
	PageReads int
	// ExtentScans counts whole-extent scans.
	ExtentScans int
	// IndexProbes counts secondary-index probes (equality or range); the
	// objects each probe fetches are metered as ObjectReads/PageReads.
	IndexProbes int
}

// Store is an object store plus extents, serving concurrent reads under
// writes: every Insert/Delete/Update publishes a new immutable version
// (version.go) and readers either pin one (Snapshot) or follow the latest
// via the Store's own DB methods. Writes are serialized by an internal
// writer lock but never block in-flight readers; indexes and collected
// statistics are maintained incrementally per write instead of being
// invalidated and rebuilt. All methods are safe for concurrent use.
type Store struct {
	cat *schema.Catalog

	// mu is the writer lock: Insert, Delete, Update, CreateIndex, GC and the
	// first Analyze scan hold it. Readers never take it.
	mu   sync.Mutex
	head atomic.Pointer[version]
	// objects resolves an oid by page arithmetic to the head of the object's
	// version chain (objTable, version.go). Entries are only removed by GC,
	// and only once no pinned snapshot can reach any state of the object.
	objects objTable

	// pins counts live snapshots per pinned seq; the minimum pinned seq is
	// the GC horizon (gc.go).
	pinMu sync.Mutex
	pins  map[uint64]int
	// mutations counts deletes/updates since the last GC; gcEvery is the
	// auto-GC trigger threshold (0 disables). Both are written and read only
	// under mu.
	mutations int
	gcEvery   int

	// mat caches the latest materialized set per extent; older versions
	// rebuild from their oid lists, newer versions clone-and-extend
	// (materialize).
	matMu sync.Mutex
	mat   map[string]matEntry

	// colProjs caches the latest columnar projection per extent for the
	// batch executor (colproj.go).
	colMu    sync.Mutex
	colProjs map[string]colEntry

	// indexes is the secondary-index registry (index.go): extent → attr →
	// index. Probes take idxMu for reading; writes absorb under the writer
	// lock.
	indexes map[string]map[string]*extIndex
	idxMu   sync.RWMutex

	// Incremental ANALYZE state (analyze.go): live per-extent statistics
	// updated in place on Insert/Delete/Update, the memoized published
	// DBStats, and the stats epoch the plan cache keys on.
	statsMu     sync.Mutex
	live        map[string]*liveTableStats
	statsCache  *DBStats
	statsDirty  bool
	sinceEpoch  map[string]int
	rowsAtEpoch map[string]int
	statsEpoch  atomic.Uint64

	lastPage    atomic.Int64
	objectReads atomic.Int64
	pageReads   atomic.Int64
	extentScans atomic.Int64
	indexProbes atomic.Int64
}

// matEntry is one cached extent materialization: the set over exactly the
// oid list it was built from, identified by length plus backing array (an
// insert extends the shared backing; a delete or update replaces it), and
// stamped with the version seq it was materialized at so a stale request
// never replaces a fresher entry.
type matEntry struct {
	seq  uint64
	oids []value.OID
	set  *value.Set
}

// New creates an empty store for the given catalog.
func New(cat *schema.Catalog) *Store {
	s := &Store{
		cat:         cat,
		mat:         map[string]matEntry{},
		colProjs:    map[string]colEntry{},
		pins:        map[uint64]int{},
		gcEvery:     DefaultGCEvery,
		sinceEpoch:  map[string]int{},
		rowsAtEpoch: map[string]int{},
	}
	s.head.Store(&version{nextOID: 1, extents: map[string][]value.OID{}})
	s.lastPage.Store(-1)
	return s
}

// Catalog returns the schema catalog the store was created with.
func (s *Store) Catalog() *schema.Catalog { return s.cat }

// Insert stores an object in the named extent. The tuple must not already
// carry the class's id field; Insert allocates a fresh oid, prepends the id
// field, and returns the oid. Attribute completeness is not enforced here —
// the typechecker validates query/schema agreement — but extent existence is.
//
// Insert is safe to run concurrently with readers: the row is absorbed into
// the extent's indexes and live statistics first, then a new version is
// published atomically. Snapshots pinned before the publish never observe
// the row (probes resolve through the version chain); snapshots taken after
// always do.
func (s *Store) Insert(extent string, t *value.Tuple) (value.OID, error) {
	cl, ok := s.cat.ByExtent(extent)
	if !ok {
		return 0, fmt.Errorf("storage: unknown extent %q", extent)
	}
	if t.Has(cl.IDField) {
		return 0, fmt.Errorf("storage: object for %q already has id field %q", extent, cl.IDField)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.head.Load()
	oid := v.nextOID
	obj := stored(cl.IDField, oid, t)
	s.objects.store(oid, &objVersion{extent: extent, obj: obj, born: v.seq + 1})
	s.absorbIndexes(extent, oid, obj)
	s.absorbStats(extent, obj, len(v.extents[extent])+1)
	s.head.Store(&version{
		seq:     v.seq + 1,
		nextOID: oid + 1,
		extents: cowExtents(v.extents, extent, oid),
	})
	return oid, nil
}

// Delete removes the object from its extent. Visibility is version-chained:
// a tombstone is prepended to the object's chain, so snapshots pinned
// before the delete keep seeing the old row while snapshots taken after do
// not. Index entries are not physically removed (pinned readers still probe
// the old state); probes filter through the chain, and the garbage
// collector prunes entries once no snapshot can reach the row. Live
// statistics unabsorb the row immediately. The oid is never reused.
func (s *Store) Delete(extent string, oid value.OID) error {
	if _, ok := s.cat.ByExtent(extent); !ok {
		return fmt.Errorf("storage: unknown extent %q", extent)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.head.Load()
	cur, err := s.aliveAt(extent, oid, v.seq)
	if err != nil {
		return fmt.Errorf("storage: delete: %w", err)
	}
	s.objects.store(oid, &objVersion{extent: extent, born: v.seq + 1, prev: cur})
	s.unabsorbStats(extent, cur.obj)
	s.head.Store(&version{
		seq:     v.seq + 1,
		nextOID: v.nextOID,
		extents: replaceExtent(v.extents, extent, oid, true),
	})
	s.mutated()
	return nil
}

// Update replaces the object's attributes wholesale (the tuple must not
// carry the id field — identity is not updatable; Update re-prepends it).
// Visibility is version-chained like Delete: pinned snapshots keep the old
// state, later snapshots see the new one. The new attribute values are
// absorbed into the extent's indexes and live statistics (the old values
// are unabsorbed from statistics and horizon-filtered out of index probes).
func (s *Store) Update(extent string, oid value.OID, t *value.Tuple) error {
	cl, ok := s.cat.ByExtent(extent)
	if !ok {
		return fmt.Errorf("storage: unknown extent %q", extent)
	}
	if t.Has(cl.IDField) {
		return fmt.Errorf("storage: update for %q must not carry id field %q", extent, cl.IDField)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.head.Load()
	cur, err := s.aliveAt(extent, oid, v.seq)
	if err != nil {
		return fmt.Errorf("storage: update: %w", err)
	}
	obj := stored(cl.IDField, oid, t)
	s.objects.store(oid, &objVersion{extent: extent, obj: obj, born: v.seq + 1, prev: cur})
	s.absorbIndexes(extent, oid, obj)
	s.unabsorbStats(extent, cur.obj)
	s.absorbStats(extent, obj, len(v.extents[extent]))
	// The extent keeps the same membership but the slice backing is replaced
	// so stale materializations are detected by pointer identity.
	s.head.Store(&version{
		seq:     v.seq + 1,
		nextOID: v.nextOID,
		extents: replaceExtent(v.extents, extent, oid, false),
	})
	s.mutated()
	return nil
}

// stored is the row the store keeps for t under oid: the id field, then t's
// attributes, each as kept. t must not have the id field.
func stored(idField string, oid value.OID, t *value.Tuple) *value.Tuple {
	id, _ := value.ShapeOf([]string{idField})
	shape, _ := id.Concat(t.Shape) // t has no idField
	obj, vals := shape.Alloc()
	vals[0] = oid
	for i, v := range t.Vals() {
		vals[i+1] = kept(v)
	}
	return obj
}

// kept is what the store keeps of an attribute value v. A set of at most
// value.SmallSet elements, or one of references ({⟨pid⟩}: value.UnaryInts),
// is kept as a copy the store owns (value.Set.CompactColumn): one allocation
// up to SmallSet elements, and carrying its reference column, which the hash
// join's membership and μ probes read. The caller's set is never modified.
// Other values, including larger sets and sets nested inside elements or
// attributes, are kept as the caller built them.
func kept(v value.Value) value.Value {
	if set, ok := v.(*value.Set); ok {
		if c := set.CompactColumn(); c != nil {
			return c
		}
		if set.Len() <= value.SmallSet {
			return set.Compact()
		}
	}
	return v
}

// aliveAt resolves the object's chain at seq and verifies it is alive and
// belongs to the extent. Caller holds the writer lock.
func (s *Store) aliveAt(extent string, oid value.OID, seq uint64) (*objVersion, error) {
	n := s.objects.load(oid)
	if n == nil {
		return nil, fmt.Errorf("no object %v", oid)
	}
	cur := n.at(seq)
	if cur == nil || cur.obj == nil {
		return nil, fmt.Errorf("object %v is deleted", oid)
	}
	if cur.extent != extent {
		return nil, fmt.Errorf("object %v belongs to extent %q, not %q", oid, cur.extent, extent)
	}
	return cur, nil
}

// mutated counts one delete/update toward the auto-GC trigger and runs a
// collection when the threshold is reached. Caller holds the writer lock.
func (s *Store) mutated() {
	s.mutations++
	if s.gcEvery > 0 && s.mutations >= s.gcEvery {
		s.gcLocked()
	}
}

// objectAt resolves an oid to its state at seq without metering; ok is false
// for unknown, not-yet-born, or deleted objects.
func (s *Store) objectAt(oid value.OID, seq uint64) (*value.Tuple, bool) {
	cur := s.objects.load(oid).at(seq)
	if cur == nil || cur.obj == nil {
		return nil, false
	}
	return cur.obj, true
}

// lookupAt is objectAt with metering (see Lookup for the page model).
func (s *Store) lookupAt(oid value.OID, seq uint64) (*value.Tuple, bool) {
	obj, ok := s.objectAt(oid, seq)
	if ok {
		s.objectReads.Add(1)
		page := int64(uint64(oid) / ObjectsPerPage)
		if s.lastPage.Load() != page {
			s.pageReads.Add(1)
			s.lastPage.Store(page)
		}
	}
	return obj, ok
}

// Lookup fetches an object by oid as of the latest version, metering the
// access. The page meter models a single one-page buffer: for one run at a
// time the counts are exact; concurrent runs share that one buffer, so
// PageReads is an upper bound (interleaved goroutines evict each other's
// page) — compare page counts across lone runs only. The load-then-store (rather than an unconditional swap) keeps
// the sequential-locality hot path free of contended writes.
func (s *Store) Lookup(oid value.OID) (*value.Tuple, bool) {
	return s.lookupAt(oid, s.head.Load().seq)
}

// Deref implements pointer dereferencing for the evaluator: it is Lookup
// without the comma-ok, failing loudly on dangling oids.
func (s *Store) Deref(oid value.OID) (*value.Tuple, error) {
	obj, ok := s.Lookup(oid)
	if !ok {
		return nil, fmt.Errorf("storage: dangling oid %v", oid)
	}
	return obj, nil
}

// Table returns the extent as of the latest version as a set of tuples.
// Callers must treat the set as immutable. Readers that need a stable view
// across several calls pin a Snapshot instead.
func (s *Store) Table(name string) (*value.Set, error) {
	sn := s.Snapshot()
	defer sn.Release()
	return sn.Table(name)
}

// sharesPrefix reports whether cached is a prefix of oids sharing the same
// backing array — the insert-only delta case materialize can extend. A
// delete or update replaces the extent slice's backing (replaceExtent), so
// a stale cache entry can never pass this check.
func sharesPrefix(cached, oids []value.OID) bool {
	if len(cached) > len(oids) {
		return false
	}
	if len(cached) == 0 {
		return true
	}
	return &cached[0] == &oids[0]
}

// materialize returns the set over an extent's oid list as of seq, serving
// from and maintaining the per-extent cache: an exact hit (same length, same
// backing array) is returned as-is, a newer superset sharing the cached
// backing clones the cached set and adds only the delta (copy-on-write — the
// cached set stays valid for snapshots that still reference it), anything
// else rebuilds. The cache keeps whichever materialization belongs to the
// newest version requested so far; requests for older versions rebuild
// without disturbing it.
func (s *Store) materialize(name string, oids []value.OID, seq uint64) *value.Set {
	n := len(oids)
	s.matMu.Lock()
	defer s.matMu.Unlock()
	e := s.mat[name]
	if e.set != nil && len(e.oids) == n && sharesPrefix(e.oids, oids) {
		return e.set
	}
	var set *value.Set
	if e.set != nil && len(e.oids) < n && sharesPrefix(e.oids, oids) {
		set = e.set.Clone()
		for _, oid := range oids[len(e.oids):] {
			if obj, ok := s.objectAt(oid, seq); ok {
				set.Add(obj)
			}
		}
	} else {
		set = value.NewSetCap(n)
		for _, oid := range oids {
			if obj, ok := s.objectAt(oid, seq); ok {
				set.Add(obj)
			}
		}
	}
	if seq >= e.seq || e.set == nil {
		s.mat[name] = matEntry{seq: seq, oids: oids, set: set}
	}
	return set
}

// meterScan charges one whole-extent scan over rows objects: the scan
// counter plus one page touch per page — charged even when the materialized
// set is cached, because the meter models the access path's logical I/O, not
// the Go-level memoization. The sweep also evicts the one-page lookup
// buffer.
func (s *Store) meterScan(rows int) {
	s.extentScans.Add(1)
	if rows > 0 {
		s.pageReads.Add(int64((rows + ObjectsPerPage - 1) / ObjectsPerPage))
	}
	s.lastPage.Store(-1)
}

// OIDs returns the oids of an extent in insertion order, as of the latest
// version.
func (s *Store) OIDs(extent string) []value.OID {
	sn := s.Snapshot()
	defer sn.Release()
	return sn.OIDs(extent)
}

// Size reports the number of objects in an extent as of the latest version.
func (s *Store) Size(extent string) int {
	sn := s.Snapshot()
	defer sn.Release()
	return sn.Size(extent)
}

// Stats returns the I/O counters accumulated since the last ResetStats.
func (s *Store) Stats() Stats {
	return Stats{
		ObjectReads: int(s.objectReads.Load()),
		PageReads:   int(s.pageReads.Load()),
		ExtentScans: int(s.extentScans.Load()),
		IndexProbes: int(s.indexProbes.Load()),
	}
}

// ResetStats clears the I/O counters.
func (s *Store) ResetStats() {
	s.objectReads.Store(0)
	s.pageReads.Store(0)
	s.extentScans.Store(0)
	s.indexProbes.Store(0)
	s.lastPage.Store(-1)
}

// MemDB is a trivial table provider for tests and paper figures: named
// in-memory sets with no schema, no oids and no metering.
type MemDB struct {
	Tables map[string]*value.Set
	Objs   map[value.OID]*value.Tuple
}

// NewMemDB builds a MemDB from alternating name/*value.Set pairs.
func NewMemDB(pairs ...any) *MemDB {
	db := &MemDB{Tables: map[string]*value.Set{}, Objs: map[value.OID]*value.Tuple{}}
	for i := 0; i < len(pairs); i += 2 {
		db.Tables[pairs[i].(string)] = pairs[i+1].(*value.Set)
	}
	return db
}

// Table returns the named table.
func (db *MemDB) Table(name string) (*value.Set, error) {
	t, ok := db.Tables[name]
	if !ok {
		return nil, fmt.Errorf("storage: unknown base table %q", name)
	}
	return t, nil
}

// Deref resolves an oid if the MemDB carries objects.
func (db *MemDB) Deref(oid value.OID) (*value.Tuple, error) {
	if t, ok := db.Objs[oid]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("storage: dangling oid %v", oid)
}

// TableNames lists the tables, sorted, for diagnostics.
func (db *MemDB) TableNames() []string {
	out := make([]string, 0, len(db.Tables))
	for n := range db.Tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
