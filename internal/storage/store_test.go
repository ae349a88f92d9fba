package storage

import (
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	return New(schema.SupplierPart())
}

func TestInsertAssignsOIDsAndIDField(t *testing.T) {
	s := newStore(t)
	oid1, err := s.Insert("PART", value.NewTuple(
		"pname", value.String("bolt"), "price", value.Int(10), "color", value.String("red")))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	oid2, err := s.Insert("PART", value.NewTuple(
		"pname", value.String("nut"), "price", value.Int(5), "color", value.String("blue")))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if oid1 == oid2 {
		t.Fatalf("oids must be distinct")
	}
	obj, err := s.Deref(oid1)
	if err != nil {
		t.Fatalf("Deref: %v", err)
	}
	if got := obj.MustGet("pid"); !value.Equal(got, oid1) {
		t.Fatalf("id field = %v, want %v", got, oid1)
	}
	if got := obj.MustGet("pname"); !value.Equal(got, value.String("bolt")) {
		t.Fatalf("pname = %v", got)
	}
}

func TestInsertValidation(t *testing.T) {
	s := newStore(t)
	if _, err := s.Insert("NOPE", value.EmptyTuple()); err == nil {
		t.Fatalf("unknown extent must fail")
	}
	if _, err := s.Insert("PART", value.NewTuple("pid", value.OID(9))); err == nil {
		t.Fatalf("pre-set id field must fail")
	}
}

func TestTableMaterializationAndCache(t *testing.T) {
	s := newStore(t)
	if _, err := s.Insert("PART", value.NewTuple("pname", value.String("a"), "price", value.Int(1), "color", value.String("red"))); err != nil {
		t.Fatal(err)
	}
	tab, err := s.Table("PART")
	if err != nil {
		t.Fatalf("Table: %v", err)
	}
	if tab.Len() != 1 {
		t.Fatalf("PART size = %d", tab.Len())
	}
	// Cache is invalidated by inserts.
	if _, err := s.Insert("PART", value.NewTuple("pname", value.String("b"), "price", value.Int(2), "color", value.String("blue"))); err != nil {
		t.Fatal(err)
	}
	tab, err = s.Table("PART")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 {
		t.Fatalf("PART size after insert = %d", tab.Len())
	}
	// Empty but known extents yield empty sets; unknown extents error.
	emp, err := s.Table("SUPPLIER")
	if err != nil || emp.Len() != 0 {
		t.Fatalf("empty extent: %v, %v", emp, err)
	}
	if _, err := s.Table("NOPE"); err == nil {
		t.Fatalf("unknown table must error")
	}
}

func TestDanglingOID(t *testing.T) {
	s := newStore(t)
	if _, err := s.Deref(value.OID(999)); err == nil {
		t.Fatalf("dangling oid must error")
	}
}

func TestPageMetering(t *testing.T) {
	s := newStore(t)
	const n = 4 * ObjectsPerPage
	var oids []value.OID
	for i := 0; i < n; i++ {
		oid, err := s.Insert("PART", value.NewTuple(
			"pname", value.String("p"), "price", value.Int(int64(i)), "color", value.String("red")))
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	s.ResetStats()
	// Sequential scan through oids touches each of the 4+1 boundary pages once
	// (oids start at 1, so they straddle 5 pages of ObjectsPerPage objects).
	for _, oid := range oids {
		if _, ok := s.Lookup(oid); !ok {
			t.Fatalf("missing object %v", oid)
		}
	}
	st := s.Stats()
	if st.ObjectReads != n {
		t.Fatalf("ObjectReads = %d", st.ObjectReads)
	}
	if st.PageReads != 5 {
		t.Fatalf("PageReads = %d, want 5 (sequential locality)", st.PageReads)
	}
	// Random-ish alternating access defeats the one-page buffer.
	s.ResetStats()
	for i := 0; i < 8; i++ {
		s.Lookup(oids[0])
		s.Lookup(oids[n-1])
	}
	if got := s.Stats().PageReads; got != 16 {
		t.Fatalf("alternating PageReads = %d, want 16", got)
	}
}

func TestMemDB(t *testing.T) {
	x := value.NewSet(value.NewTuple("a", value.Int(1)))
	db := NewMemDB("X", x)
	got, err := db.Table("X")
	if err != nil || !value.Equal(got, x) {
		t.Fatalf("Table = %v, %v", got, err)
	}
	if _, err := db.Table("Y"); err == nil {
		t.Fatalf("unknown table must error")
	}
	if _, err := db.Deref(value.OID(1)); err == nil {
		t.Fatalf("MemDB without objects must report dangling oid")
	}
	db.Objs[1] = value.NewTuple("a", value.Int(1))
	if tup, err := db.Deref(value.OID(1)); err != nil || tup == nil {
		t.Fatalf("Deref: %v, %v", tup, err)
	}
	if names := db.TableNames(); len(names) != 1 || names[0] != "X" {
		t.Fatalf("TableNames = %v", names)
	}
}
