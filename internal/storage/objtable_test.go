package storage

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

// checkSnapshotView verifies that every read path of a pinned snapshot
// answers with the snapshot's own rows: each oid of its extent dereferences to
// a row of its Table, the index probes return exactly the Table's matching
// rows, and the first oid it cannot see does not resolve.
func checkSnapshotView(sn *Snapshot) error {
	tab, err := sn.Table("PART")
	if err != nil {
		return err
	}
	oids := sn.OIDs("PART")
	if tab.Len() != len(oids) {
		return fmt.Errorf("seq %d: Table has %d rows, extent %d oids", sn.Seq(), tab.Len(), len(oids))
	}
	for _, oid := range oids {
		obj, err := sn.Deref(oid)
		if err != nil {
			return fmt.Errorf("seq %d: %v", sn.Seq(), err)
		}
		if !tab.Contains(obj) {
			return fmt.Errorf("seq %d: Deref(%v) = %v, not a row of the snapshot", sn.Seq(), oid, obj)
		}
	}
	red, mid := value.EmptySet(), value.EmptySet()
	for _, row := range tab.Elems() {
		tup := row.(*value.Tuple)
		if value.Equal(tup.MustGet("color"), value.String("red")) {
			red.Add(row)
		}
		if p := tup.MustGet("price").(value.Int); p >= 10 && p <= 30 {
			mid.Add(row)
		}
	}
	eq, err := sn.IndexLookup("PART", "color", value.String("red"))
	if err != nil {
		return err
	}
	if got := value.NewSetFromSlice(eq); !value.Equal(got, red) {
		return fmt.Errorf("seq %d: IndexLookup has %d rows, Table %d", sn.Seq(), got.Len(), red.Len())
	}
	rng, err := sn.IndexRange("PART", "price", value.Int(10), value.Int(30), true, true)
	if err != nil {
		return err
	}
	if got := value.NewSetFromSlice(rng); !value.Equal(got, mid) {
		return fmt.Errorf("seq %d: IndexRange has %d rows, Table %d", sn.Seq(), got.Len(), mid.Len())
	}
	if _, err := sn.Deref(sn.v.nextOID); err == nil {
		return fmt.Errorf("seq %d: oid %v past the snapshot resolved", sn.Seq(), sn.v.nextOID)
	}
	return nil
}

// TestObjectTableUnderConcurrentReaders grows the object table's directory
// under pinned readers: a writer inserts across several table pages while
// deleting and updating, with GC removing objects, and every reader's view —
// read twice, the directory growing in between — equals its snapshot's.
func TestObjectTableUnderConcurrentReaders(t *testing.T) {
	s := newStore(t)
	s.SetAutoGC(64)
	if err := s.CreateIndex("PART", "color", HashIndex); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("PART", "price", OrderedIndex); err != nil {
		t.Fatal(err)
	}
	var oids []value.OID
	for i := 0; i < 64; i++ {
		oids = append(oids, insertPart(t, s, fmt.Sprintf("seed%d", i), "red", int64(i%50)))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := s.Snapshot()
				err := checkSnapshotView(sn)
				if err == nil {
					err = checkSnapshotView(sn)
				}
				sn.Release()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	colors := []string{"red", "blue", "green"}
	for i := 0; oids[len(oids)-1] < 3<<objPageBits; i++ {
		oids = append(oids, insertPart(t, s, fmt.Sprintf("n%d", i), colors[i%3], int64(i%50)))
		switch i % 4 {
		case 1:
			j := (i * 7) % len(oids)
			mustDelete(t, s, "PART", oids[j])
			oids = append(oids[:j], oids[j+1:]...)
		case 2:
			mustUpdate(t, s, oids[(i*5)%len(oids)], fmt.Sprintf("u%d", i), colors[(i+1)%3], int64(i%40))
		}
	}
	close(stop)
	wg.Wait()
	if pages := len(s.objects.pages()); pages < 3 {
		t.Fatalf("the writer filled %d table pages, want the directory grown past two boundaries", pages)
	}
	s.GC()
	sn := s.Snapshot()
	defer sn.Release()
	if err := checkSnapshotView(sn); err != nil {
		t.Fatal(err)
	}
	if got := sn.Size("PART"); got != len(oids) {
		t.Fatalf("final extent size %d, want %d", got, len(oids))
	}
}

// TestObjectTableLookupEdges pins the not-found answers of the page
// arithmetic: oid 0 (never allocated), the allocation horizon, an oid on a
// page the directory does not reach, and an oid GC removed.
func TestObjectTableLookupEdges(t *testing.T) {
	var empty objTable
	if empty.load(1) != nil {
		t.Fatal("an empty table resolved oid 1")
	}
	s := newStore(t)
	a := insertPart(t, s, "a", "red", 1)
	insertPart(t, s, "b", "blue", 2)
	mustDelete(t, s, "PART", a)
	if st := s.GC(); st.RemovedObjects != 1 {
		t.Fatalf("GC removed %d objects, want the deleted one", st.RemovedObjects)
	}
	sn := s.Snapshot()
	defer sn.Release()
	for _, oid := range []value.OID{0, sn.v.nextOID, 1 << 40, a} {
		if _, ok := s.Lookup(oid); ok {
			t.Errorf("Store.Lookup(%v) found an object", oid)
		}
		if _, err := sn.Deref(oid); err == nil {
			t.Errorf("Snapshot.Deref(%v) found an object", oid)
		}
	}
}

// TestLoadJSONSparseOIDs loads live and dead objects at sparse oids — the one
// way holes enter the object table — and checks that they resolve, that the
// dump round-trips byte-identically, and that allocation continues past them.
func TestLoadJSONSparseOIDs(t *testing.T) {
	cat := schema.SupplierPart()
	part := func(oid value.OID, name string) string {
		return fmt.Sprintf(`{"tuple":[["pid",{"oid":%d}],["pname",{"str":%q}],["price",{"int":1}],["color",{"str":"red"}]]}`, oid, name)
	}
	src := fmt.Sprintf(`{"extents":{"PART":[%s,%s]},"tombstones":{"PART":[%d]}}`,
		part(3, "low"), part(1<<20, "high"), 1<<19)
	st, err := LoadJSON(cat, strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	for oid, name := range map[value.OID]string{3: "low", 1 << 20: "high"} {
		obj, err := st.Deref(oid)
		if err != nil || !value.Equal(obj.MustGet("pname"), value.String(name)) {
			t.Fatalf("Deref(%v) = %v, %v", oid, obj, err)
		}
	}
	for _, oid := range []value.OID{1, 1 << 19, 1<<20 - 1, 1<<20 + 1} {
		if _, ok := st.Lookup(oid); ok {
			t.Errorf("Lookup(%v) resolved a hole or a tombstone", oid)
		}
	}
	var first, second bytes.Buffer
	if err := st.SaveJSON(&first); err != nil {
		t.Fatal(err)
	}
	again, err := LoadJSON(cat, bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := again.SaveJSON(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("sparse dump does not round-trip:\n%s\n---\n%s", first.Bytes(), second.Bytes())
	}
	if oid := insertPart(t, again, "next", "blue", 2); oid != 1<<20+1 {
		t.Fatalf("allocation after a sparse load = %v, want %v", oid, value.OID(1<<20+1))
	}
}
