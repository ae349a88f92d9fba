package storage_test

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/adl"
	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// refSet is {⟨pid = o⟩ | o in oids}.
func refSet(oids ...value.OID) *value.Set {
	s := value.EmptySet()
	for _, o := range oids {
		s.Add(value.NewTuple("pid", o))
	}
	return s
}

// oids returns n oids from first on.
func oids(first value.OID, n int) []value.OID {
	out := make([]value.OID, n)
	for i := range out {
		out[i] = first + value.OID(i)
	}
	return out
}

func supplier(parts *value.Set) *value.Tuple {
	return value.NewTuple("sname", value.String("s"), "parts", parts)
}

// keptParts reads the parts set a store or snapshot keeps for oid.
func keptParts(t *testing.T, db interface {
	Deref(value.OID) (*value.Tuple, error)
}, oid value.OID) *value.Set {
	t.Helper()
	obj, err := db.Deref(oid)
	if err != nil {
		t.Fatal(err)
	}
	return obj.MustGet("parts").(*value.Set)
}

// checkColumn fails unless set carries an OID reference column that agrees
// with its elements.
func checkColumn(t *testing.T, set *value.Set) {
	t.Helper()
	shape, kind, bits := set.Column()
	if shape == nil || kind != value.KindOID || len(bits) != set.Len() {
		t.Fatalf("set of %d has column (%v, %v, %d bits), want an OID column", set.Len(), shape, kind, len(bits))
	}
	for i, e := range set.Elems() {
		if b, _ := value.IntBits(e.(*value.Tuple).Vals()[0]); b != bits[i] {
			t.Fatalf("column bit %d is %d, element %v", i, bits[i], e)
		}
	}
}

// TestStoredReferenceColumn: Insert and Update keep a reference set as a copy
// carrying its column, small or above value.SmallSet, and never touch the
// caller's set; a set that is not one of references gets no column.
func TestStoredReferenceColumn(t *testing.T) {
	st := storage.New(schema.SupplierPart())
	for _, n := range []int{1, value.SmallSet, value.SmallSet + 5} {
		caller := refSet(oids(100, n)...)
		elems := slices.Clone(caller.Elems())
		oid, err := st.Insert("SUPPLIER", supplier(caller))
		if err != nil {
			t.Fatal(err)
		}
		if shape, _, _ := caller.Column(); shape != nil || !slices.Equal(caller.Elems(), elems) {
			t.Fatalf("Insert of %d references changed the caller's set", n)
		}
		kept := keptParts(t, st, oid)
		if kept == caller || !value.Equal(kept, caller) {
			t.Fatalf("Insert of %d references: kept %p %v, caller's %p", n, kept, kept, caller)
		}
		checkColumn(t, kept)

		update := refSet(oids(500, n+1)...)
		if err := st.Update("SUPPLIER", oid, supplier(update)); err != nil {
			t.Fatal(err)
		}
		if shape, _, _ := update.Column(); shape != nil {
			t.Fatalf("Update of %d references gave the caller's set a column", n+1)
		}
		if kept := keptParts(t, st, oid); !value.Equal(kept, update) {
			t.Fatalf("Update: kept %v, want %v", kept, update)
		} else {
			checkColumn(t, kept)
		}
	}
	for name, set := range map[string]*value.Set{
		"empty":        value.EmptySet(),
		"two shapes":   value.NewSet(value.NewTuple("pid", value.OID(1)), value.NewTuple("qid", value.OID(2))),
		"two kinds":    value.NewSet(value.NewTuple("pid", value.OID(1)), value.NewTuple("pid", value.Int(2))),
		"binary":       value.NewSet(value.NewTuple("pid", value.OID(1), "n", value.Int(2))),
		"string value": value.NewSet(value.NewTuple("pid", value.String("x"))),
		"atoms":        value.NewSet(value.OID(1), value.OID(2)),
	} {
		oid, err := st.Insert("SUPPLIER", supplier(set))
		if err != nil {
			t.Fatal(err)
		}
		if shape, _, _ := keptParts(t, st, oid).Column(); shape != nil {
			t.Errorf("%s: kept with a column of %v", name, shape)
		}
	}
}

// TestPinnedSnapshotProbesItsColumn: a set-probe semijoin run through a
// snapshot pinned before a stream of updates keeps probing the reference
// columns of its version while a writer replaces them. Run it under -race.
func TestPinnedSnapshotProbesItsColumn(t *testing.T) {
	st := storage.New(schema.SupplierPart())
	var parts []value.OID
	for i := range 6 {
		oid, err := st.Insert("PART", value.NewTuple("pname", value.String("p"),
			"price", value.Int(int64(i)), "color", value.String("red")))
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, oid)
	}
	var suppliers []value.OID
	for i := range 4 {
		// Supplier i references part i, or a dangling oid for i = 3.
		ref := value.OID(1 << 40)
		if i < 3 {
			ref = parts[i]
		}
		oid, err := st.Insert("SUPPLIER", supplier(refSet(ref)))
		if err != nil {
			t.Fatal(err)
		}
		suppliers = append(suppliers, oid)
	}
	semi := &exec.HashJoin{Kind: adl.Semi, L: &exec.Scan{Table: "SUPPLIER"}, R: &exec.Scan{Table: "PART"},
		In: "parts", RKey: exec.NewScalar(adl.SubT(adl.V("y"), "pid"), "y"), As: "ys"}
	run := func(db *storage.Snapshot) *value.Set {
		got, err := exec.Collect(semi, &exec.Ctx{DB: db})
		if err != nil {
			t.Error(err)
		}
		return got
	}
	snap := st.Snapshot()
	defer snap.Release()
	want := run(snap)
	if want.Len() != 3 {
		t.Fatalf("pinned semijoin: %d suppliers, want 3", want.Len())
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range 100 {
			// Every supplier now references the parts no one referenced at
			// the pin, or nothing real.
			for j, s := range suppliers {
				ref := value.OID(1<<40 + i)
				if j%2 == 0 {
					ref = parts[3+(i+j)%3]
				}
				if err := st.Update("SUPPLIER", s, supplier(refSet(ref))); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for range 50 {
		if got := run(snap); !value.Equal(got, want) {
			t.Fatalf("pinned semijoin under a writer: %v, want %v", got, want)
		}
		checkColumn(t, keptParts(t, snap, suppliers[0]))
	}
	wg.Wait()

	head := st.Snapshot()
	defer head.Release()
	if got := run(head); got.Len() != 2 {
		t.Errorf("semijoin after the updates: %d suppliers, want 2 (the even ones)", got.Len())
	}
}
