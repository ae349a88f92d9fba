package storage

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

func TestSnapshotRoundTrip(t *testing.T) {
	cat := schema.SupplierPart()
	st := New(cat)
	p1, err := st.Insert("PART", value.NewTuple(
		"pname", value.String("bolt"), "price", value.Int(10), "color", value.String("red")))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := st.Insert("PART", value.NewTuple(
		"pname", value.String("nut"), "price", value.Int(5), "color", value.String("blue")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert("SUPPLIER", value.NewTuple(
		"sname", value.String("acme"),
		"parts", value.NewSet(value.NewTuple("pid", p1), value.NewTuple("pid", p2)))); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert("DELIVERY", value.NewTuple(
		"supplier", value.OID(3),
		"supply", value.NewSet(value.NewTuple("part", p1, "quantity", value.Int(4))),
		"date", value.Date(940101))); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := st.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	st2, err := LoadJSON(cat, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{"PART", "SUPPLIER", "DELIVERY"} {
		a, err := st.Table(ext)
		if err != nil {
			t.Fatal(err)
		}
		b, err := st2.Table(ext)
		if err != nil {
			t.Fatal(err)
		}
		if !value.Equal(a, b) {
			t.Errorf("%s differs after round trip:\n a: %v\n b: %v", ext, a, b)
		}
	}
	// Object identity survives: dereferencing the old oid works.
	obj, err := st2.Deref(p1)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(obj.MustGet("pname"), value.String("bolt")) {
		t.Errorf("deref after load = %v", obj)
	}
	// The allocator continues past loaded oids.
	p3, err := st2.Insert("PART", value.NewTuple(
		"pname", value.String("gear"), "price", value.Int(1), "color", value.String("red")))
	if err != nil {
		t.Fatal(err)
	}
	if p3 <= p1 || p3 <= p2 {
		t.Errorf("allocator reused oids: %v", p3)
	}
}

func TestLoadJSONErrors(t *testing.T) {
	cat := schema.SupplierPart()
	cases := map[string]string{
		"garbage":       `not json`,
		"unknown ext":   `{"extents":{"NOPE":[]}}`,
		"non-tuple":     `{"extents":{"PART":[{"int":1}]}}`,
		"missing id":    `{"extents":{"PART":[{"tuple":[["pname",{"str":"x"}]]}]}}`,
		"id not oid":    `{"extents":{"PART":[{"tuple":[["pid",{"int":1}]]}]}}`,
		"duplicate oid": `{"extents":{"PART":[{"tuple":[["pid",{"oid":1}]]},{"tuple":[["pid",{"oid":1}]]}]}}`,
	}
	for name, src := range cases {
		if _, err := LoadJSON(cat, strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// An oid above the object table's bound fails with an error naming it,
	// whether it is a live object, a tombstone or the allocation horizon.
	above := uint64(maxOID) + 1
	for name, src := range map[string]string{
		"live":      fmt.Sprintf(`{"extents":{"PART":[{"tuple":[["pid",{"oid":%d}]]}]}}`, above),
		"tombstone": fmt.Sprintf(`{"extents":{},"tombstones":{"PART":[%d]}}`, above),
		"next_oid":  fmt.Sprintf(`{"extents":{},"next_oid":%d}`, above+1),
	} {
		_, err := LoadJSON(cat, strings.NewReader(src))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(above)) {
			t.Errorf("oid above the bound (%s): error %v, want one naming %d", name, err, above)
		}
	}
	// Empty snapshot is fine.
	st, err := LoadJSON(cat, strings.NewReader(`{"extents":{}}`))
	if err != nil || st.Size("PART") != 0 {
		t.Errorf("empty snapshot: %v, %v", st, err)
	}
}
