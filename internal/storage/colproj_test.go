package storage

import (
	"testing"

	"repro/internal/col"
	"repro/internal/value"
)

func TestColProjDecodesAndCaches(t *testing.T) {
	s := newStore(t)
	insertPart(t, s, "bolt", "red", 10)
	insertPart(t, s, "nut", "blue", 5)

	p1, err := s.ColProj("PART", []string{"price", "color"})
	if err != nil {
		t.Fatalf("ColProj: %v", err)
	}
	if p1.Len() != 2 {
		t.Fatalf("proj has %d rows, want 2", p1.Len())
	}
	if c := p1.Col("price"); c == nil || c.Kind() != col.Int || c.Int(0) != 10 || c.Int(1) != 5 {
		t.Fatalf("price column = %+v", c)
	}
	if c := p1.Col("color"); c == nil || c.Kind() != col.Str || c.Str(1) != "blue" {
		t.Fatalf("color column = %+v", c)
	}

	// Same attrs, same version: served from cache.
	p2, err := s.ColProj("PART", []string{"price"})
	if err != nil {
		t.Fatalf("ColProj: %v", err)
	}
	if p2 != p1 {
		t.Fatalf("cache miss on identical version and subset attrs")
	}

	// A new attribute rebuilds with the union, so the old ones stay decoded.
	p3, err := s.ColProj("PART", []string{"pname"})
	if err != nil {
		t.Fatalf("ColProj: %v", err)
	}
	if p3 == p1 {
		t.Fatalf("superset miss must rebuild")
	}
	for _, a := range []string{"pname", "price", "color"} {
		if p3.Col(a) == nil {
			t.Fatalf("rebuilt projection lost attribute %q", a)
		}
	}

	if _, err := s.ColProj("NOPE", nil); err == nil {
		t.Fatalf("unknown extent must error")
	}
}

func TestColProjMVCCVisibility(t *testing.T) {
	s := newStore(t)
	o1 := insertPart(t, s, "bolt", "red", 10)
	insertPart(t, s, "nut", "blue", 5)

	old := s.Snapshot()
	defer old.Release()

	// Pending writes after the pin: an update, a delete, and an insert.
	if err := s.Update("PART", o1, value.NewTuple(
		"pname", value.String("bolt"), "price", value.Int(99), "color", value.String("green"))); err != nil {
		t.Fatalf("Update: %v", err)
	}
	o3 := insertPart(t, s, "washer", "red", 1)
	if err := s.Delete("PART", o3); err != nil {
		t.Fatalf("Delete: %v", err)
	}

	// The pinned snapshot's projection reflects the pre-write state.
	pOld, err := old.ColProj("PART", []string{"price"})
	if err != nil {
		t.Fatalf("old ColProj: %v", err)
	}
	if pOld.Len() != 2 {
		t.Fatalf("old proj has %d rows, want 2", pOld.Len())
	}
	if c := pOld.Col("price"); c.Int(0) != 10 {
		t.Fatalf("old proj sees updated price %d, want 10", c.Int(0))
	}

	// A fresh snapshot sees the update and not the deleted row.
	fresh := s.Snapshot()
	defer fresh.Release()
	pNew, err := fresh.ColProj("PART", []string{"price"})
	if err != nil {
		t.Fatalf("fresh ColProj: %v", err)
	}
	if pNew.Len() != 2 {
		t.Fatalf("fresh proj has %d rows, want 2", pNew.Len())
	}
	if c := pNew.Col("price"); c.Int(0) != 99 && c.Int(1) != 99 {
		t.Fatalf("fresh proj misses the update: %d, %d", c.Int(0), c.Int(1))
	}

	// Rows are identical (pointer-shared) with the snapshot's Table view.
	set, err := fresh.Table("PART")
	if err != nil {
		t.Fatalf("Table: %v", err)
	}
	for i, r := range set.Elems() {
		if pNew.Row(int32(i)) != r {
			t.Fatalf("proj row %d is not the Table row", i)
		}
	}
}

func TestColProjCacheDroppedByGC(t *testing.T) {
	s := newStore(t)
	s.SetAutoGC(0)
	o1 := insertPart(t, s, "bolt", "red", 10)
	if _, err := s.ColProj("PART", []string{"price"}); err != nil {
		t.Fatalf("ColProj: %v", err)
	}
	if err := s.Delete("PART", o1); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	st := s.GC()
	if st.DroppedMaterializations == 0 {
		t.Fatalf("GC dropped no cached projections/materializations: %+v", st)
	}
	p, err := s.ColProj("PART", []string{"price"})
	if err != nil {
		t.Fatalf("ColProj after GC: %v", err)
	}
	if p.Len() != 0 {
		t.Fatalf("post-delete proj has %d rows, want 0", p.Len())
	}
}
