package storage

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/schema"
	"repro/internal/value"
)

// persisted is the on-disk form of a store: per extent, the live objects in
// insertion order with their oids preserved, plus the oids of deleted
// objects (per extent) and the allocation horizon. Tombstones and NextOID
// round-trip so a loaded store never re-allocates a dead object's oid —
// reusing one would silently re-point any reference-valued attribute that
// still carries it. Both fields are optional: dumps from before deletes
// existed load fine.
type persisted struct {
	Extents    map[string][]json.RawMessage `json:"extents"`
	Tombstones map[string][]value.OID       `json:"tombstones,omitempty"`
	NextOID    value.OID                    `json:"next_oid,omitempty"`
}

// SaveJSON writes the store's contents (all extents, objects with their
// oids, tombstones of deleted objects) as JSON. The schema itself is not
// serialized: a snapshot is loaded against the same catalog it was taken
// under. The dump is taken against a pinned version, so saving is safe (and
// consistent) while concurrent writes keep landing: rows published after
// the pin are not written, rows deleted after it still are.
func (s *Store) SaveJSON(w io.Writer) error {
	sn := s.Snapshot()
	defer sn.Release()
	snap := persisted{Extents: map[string][]json.RawMessage{}, NextOID: sn.v.nextOID}
	exts := make([]string, 0, len(sn.v.extents))
	for ext := range sn.v.extents {
		exts = append(exts, ext)
	}
	sort.Strings(exts)
	for _, ext := range exts {
		for _, oid := range sn.v.extents[ext] {
			obj, ok := s.objectAt(oid, sn.v.seq)
			if !ok {
				return fmt.Errorf("storage: save %s: dangling oid %v", ext, oid)
			}
			enc, err := value.EncodeJSON(obj)
			if err != nil {
				return fmt.Errorf("storage: save %s: %w", ext, err)
			}
			snap.Extents[ext] = append(snap.Extents[ext], enc)
		}
	}
	// Objects dead at the pinned version are persisted as tombstones, oids
	// ascending. Chains only ever grow under the writer lock, so the walk is
	// race-free enough: an object deleted after the pin resolves to its live
	// state above and is saved as data, not as a tombstone.
	s.objects.each(func(oid value.OID, head *objVersion) {
		if n := head.at(sn.v.seq); n != nil && n.obj == nil {
			if snap.Tombstones == nil {
				snap.Tombstones = map[string][]value.OID{}
			}
			snap.Tombstones[n.extent] = append(snap.Tombstones[n.extent], oid)
		}
	})
	e := json.NewEncoder(w)
	e.SetIndent("", " ")
	return e.Encode(snap)
}

// LoadJSON reads a snapshot into a fresh store over the given catalog.
// Object identity is preserved: oids in the snapshot are kept, tombstoned
// oids stay dead (dereferencing one fails like any dangling oid), and the
// store's allocator continues past the persisted horizon — never reusing a
// dead oid. The loaded state is published as a single version, so the store
// serves reads (and accepts concurrent writes) the moment LoadJSON returns.
// Oids may be sparse but not above maxOID, which bounds the object table.
// Set-valued attributes are kept as Insert keeps them (kept).
func LoadJSON(cat *schema.Catalog, r io.Reader) (*Store, error) {
	var snap persisted
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("storage: load: %w", err)
	}
	st := New(cat)
	var top value.OID // highest loaded oid
	put := func(oid value.OID, n *objVersion, dup string) error {
		if oid > maxOID {
			return fmt.Errorf("storage: load %s: oid %v above the bound %v", n.extent, oid, maxOID)
		}
		if st.objects.load(oid) != nil {
			return fmt.Errorf(dup, oid)
		}
		st.objects.store(oid, n)
		top = max(top, oid)
		return nil
	}
	extents := map[string][]value.OID{}
	exts := make([]string, 0, len(snap.Extents))
	for ext := range snap.Extents {
		exts = append(exts, ext)
	}
	sort.Strings(exts)
	for _, ext := range exts {
		cl, ok := cat.ByExtent(ext)
		if !ok {
			return nil, fmt.Errorf("storage: load: unknown extent %q", ext)
		}
		for _, raw := range snap.Extents[ext] {
			v, err := value.DecodeJSON(raw)
			if err != nil {
				return nil, fmt.Errorf("storage: load %s: %w", ext, err)
			}
			decoded, ok := v.(*value.Tuple)
			if !ok {
				return nil, fmt.Errorf("storage: load %s: object is %s, not a tuple", ext, v.Kind())
			}
			obj, vals := decoded.Shape.Alloc()
			for i, a := range decoded.Vals() {
				vals[i] = kept(a)
			}
			idv, ok := obj.Get(cl.IDField)
			if !ok {
				return nil, fmt.Errorf("storage: load %s: object lacks id field %q", ext, cl.IDField)
			}
			oid, ok := idv.(value.OID)
			if !ok {
				return nil, fmt.Errorf("storage: load %s: id field %q is not an oid", ext, cl.IDField)
			}
			if err := put(oid, &objVersion{extent: ext, obj: obj, born: 1}, "storage: load: duplicate oid %v"); err != nil {
				return nil, err
			}
			extents[ext] = append(extents[ext], oid)
		}
	}
	for ext, oids := range snap.Tombstones {
		if _, ok := cat.ByExtent(ext); !ok {
			return nil, fmt.Errorf("storage: load: unknown tombstone extent %q", ext)
		}
		for _, oid := range oids {
			if err := put(oid, &objVersion{extent: ext, born: 1}, "storage: load: oid %v is both live and tombstoned"); err != nil {
				return nil, err
			}
		}
	}
	if snap.NextOID > maxOID+1 {
		return nil, fmt.Errorf("storage: load: next_oid %v above the bound %v", snap.NextOID, maxOID+1)
	}
	next := max(top+1, snap.NextOID)
	st.head.Store(&version{seq: 1, nextOID: next, extents: extents})
	return st, nil
}
