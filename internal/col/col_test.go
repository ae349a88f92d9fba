package col

import (
	"slices"
	"testing"

	"repro/internal/value"
)

func rowsOf(ts ...*value.Tuple) []value.Value {
	out := make([]value.Value, len(ts))
	for i, t := range ts {
		out[i] = t
	}
	return out
}

func TestDecodeTypedColumns(t *testing.T) {
	rows := rowsOf(
		value.NewTuple("i", value.Int(1), "f", value.Float(1.5), "s", value.String("a"),
			"d", value.Date(940101), "o", value.OID(7), "b", value.Bool(true),
			"set", value.NewSet(value.Int(1))),
		value.NewTuple("i", value.Int(-2), "f", value.Float(0), "s", value.String(""),
			"d", value.Date(940102), "o", value.OID(9), "b", value.Bool(false),
			"set", value.EmptySet()),
	)
	p := New("E", rows, []string{"i", "f", "s", "d", "o", "b", "set"})
	if p.Len() != 2 || p.Extent() != "E" {
		t.Fatalf("proj shape: len=%d extent=%q", p.Len(), p.Extent())
	}
	cases := []struct {
		attr string
		kind Kind
	}{{"i", Int}, {"f", Float}, {"s", Str}, {"d", Date}, {"o", OID}, {"b", Bool}, {"set", Set}}
	for _, c := range cases {
		cl := p.Col(c.attr)
		if cl == nil || cl.Kind() != c.kind {
			t.Fatalf("col %q: got %+v, want kind %d", c.attr, cl, c.kind)
		}
	}
	ints := func(attr string) [2]int64 { c := p.Col(attr); return [2]int64{c.Int(0), c.Int(1)} }
	if got := ints("i"); got != [2]int64{1, -2} {
		t.Errorf("int column = %v", got)
	}
	if got := ints("d"); got != [2]int64{940101, 940102} {
		t.Errorf("date column = %v", got)
	}
	if got := ints("o"); got != [2]int64{7, 9} {
		t.Errorf("oid column = %v", got)
	}
	if got := ints("b"); got != [2]int64{1, 0} {
		t.Errorf("bool column = %v", got)
	}
	if c := p.Col("f"); c.Float(0) != 1.5 || c.Float(1) != 0 {
		t.Errorf("float column = %v, %v", c.Float(0), c.Float(1))
	}
	if c := p.Col("s"); c.Str(0) != "a" || c.Str(1) != "" {
		t.Errorf("string column = %q, %q", c.Str(0), c.Str(1))
	}
	if c := p.Col("set"); c.Set(0).Len() != 1 || c.Set(1).Len() != 0 {
		t.Errorf("set column = %v, %v", c.Set(0), c.Set(1))
	}
	for i := range int32(2) {
		if p.Row(i) != rows[i] {
			t.Errorf("Row(%d) = %v, want the stored tuple %v", i, p.Row(i), rows[i])
		}
	}
	if len(p.Attrs()) != 7 {
		t.Errorf("Attrs() = %v", p.Attrs())
	}
}

func TestDecodeMixedFallbacks(t *testing.T) {
	mixedKind := rowsOf(
		value.NewTuple("a", value.Int(1)),
		value.NewTuple("a", value.Float(2)),
	)
	missing := rowsOf(
		value.NewTuple("a", value.Int(1)),
		value.NewTuple("b", value.Int(2)),
	)
	nested := rowsOf(value.NewTuple("a", value.NewTuple("x", value.Int(1))))
	nullValued := rowsOf(value.NewTuple("a", value.Null{}))
	nonTuple := []value.Value{value.Int(3)}
	for name, rows := range map[string][]value.Value{
		"mixed kinds": mixedKind, "missing attr": missing,
		"nested tuple": nested, "null": nullValued, "non-tuple row": nonTuple,
	} {
		p := New("E", rows, []string{"a"})
		if c := p.Col("a"); c == nil || c.Kind() != Mixed {
			t.Errorf("%s: got %+v, want Mixed", name, c)
		}
	}
	// Unrequested attribute: nil, caller treats as Mixed.
	if c := New("E", mixedKind, nil).Col("a"); c != nil {
		t.Errorf("unrequested attr: got %+v, want nil", c)
	}
	// Empty extent decodes to Mixed (no rows to type).
	if c := New("E", nil, []string{"a"}).Col("a"); c == nil || c.Kind() != Mixed {
		t.Errorf("empty extent: got %+v, want Mixed", c)
	}
}

func TestKindOfAndBits(t *testing.T) {
	for _, c := range []struct {
		v    value.Value
		kind Kind
		bits int64
		ok   bool
	}{
		{value.Int(-3), Int, -3, true}, {value.Date(940101), Date, 940101, true},
		{value.OID(5), OID, 5, true}, {value.Bool(true), Bool, 1, true}, {value.Bool(false), Bool, 0, true},
		{value.Float(2), Float, 0, false}, {value.String("x"), Str, 0, false},
		{value.EmptySet(), Set, 0, false}, {value.NewTuple("a", value.Int(1)), Mixed, 0, false},
		{value.Null{}, Mixed, 0, false},
	} {
		if k := KindOf(c.v.Kind()); k != c.kind {
			t.Errorf("KindOf(%v) = %d, want %d", c.v, k, c.kind)
		}
		if b, ok := value.IntBits(c.v); b != c.bits || ok != c.ok {
			t.Errorf("IntBits(%v) = %d, %t, want %d, %t", c.v, b, ok, c.bits, c.ok)
		}
	}
}

// patch is Patch over a row list; kept[i] says prev holds rows[i] at i.
func patch(prev *Proj, rows []value.Value, kept []bool, attrs []string) *Proj {
	return Patch(prev, len(rows), func(i int) (value.Value, bool) { return rows[i], kept[i] }, attrs)
}

// sameCol reports whether two columns over n rows have one kind and equal
// values.
func sameCol(a, b *Col, n int) bool {
	if a.kind != b.kind {
		return false
	}
	for i := range int32(n) {
		switch {
		case a.kind == Mixed:
			return true
		case a.kind == Float && a.Float(i) != b.Float(i),
			a.kind == Str && a.Str(i) != b.Str(i),
			a.kind == Set && a.Set(i) != b.Set(i),
			a.kind != Float && a.kind != Str && a.kind != Set && a.Int(i) != b.Int(i):
			return false
		}
	}
	return true
}

// TestPatchEqualsNew: a projection patched from a cached one is the
// projection New decodes from scratch, whether a write replaced a row in
// place, dropped one (shifting the rest) or appended one, or replaced a row
// with one that breaks a column's kind; a Mixed column of the cached
// projection types again once its odd row left. A chunk whose rows did not
// move is shared, not copied.
func TestPatchEqualsNew(t *testing.T) {
	row := func(i int64, m value.Value) *value.Tuple {
		return value.NewTuple("i", value.Int(i), "s", value.String(string(rune('a'+i%26))),
			"f", value.Float(float64(i)/2), "set", value.NewSet(value.Int(i)), "m", m)
	}
	const n = 3*chunkLen + 5
	r := make([]value.Value, n)
	for i := range r {
		r[i] = row(int64(i), value.Int(int64(i)))
	}
	r[2] = row(2, value.Float(2))
	attrs := []string{"i", "s", "f", "set", "m"}
	prev := New("E", r, attrs)
	if prev.Col("m").Kind() != Mixed {
		t.Fatalf("m = %+v, want Mixed", prev.Col("m"))
	}
	// keep marks the rows of rows that prev holds at the same index.
	keep := func(rows []value.Value) []bool {
		kept := make([]bool, len(rows))
		for i := range rows {
			kept[i] = i < prev.Len() && prev.Row(int32(i)) == rows[i]
		}
		return kept
	}
	breaking := value.NewTuple("i", value.String("x"), "s", value.String("x"),
		"f", value.Float(9), "set", value.EmptySet(), "m", value.Int(9))
	updated := slices.Clone(r)
	updated[300] = row(3000, value.Int(1))
	dropped := append(slices.Clone(r[:2]), r[3:]...)
	for name, rows := range map[string][]value.Value{
		"update in place": updated,
		"drop":            dropped,
		"append":          append(slices.Clone(r), row(2000, value.Int(7))),
		"kind-breaking":   {r[0], breaking, r[4]},
		"empty":           nil,
	} {
		got, want := patch(prev, rows, keep(rows), attrs), New("E", rows, attrs)
		if got.Len() != want.Len() || got.Extent() != "E" {
			t.Fatalf("%s: %d rows of %q, want %d", name, got.Len(), got.Extent(), want.Len())
		}
		for i := range int32(got.Len()) {
			if got.Row(i) != want.Row(i) {
				t.Fatalf("%s: row %d = %v, want %v", name, i, got.Row(i), want.Row(i))
			}
		}
		for _, a := range attrs {
			if !sameCol(got.Col(a), want.Col(a), got.Len()) {
				t.Errorf("%s: column %s = %+v, want %+v", name, a, got.Col(a), want.Col(a))
			}
		}
	}
	up := patch(prev, updated, keep(updated), attrs)
	if &up.rows[0][0] != &prev.rows[0][0] || &up.rows[2][0] != &prev.rows[2][0] ||
		&up.Col("s").strs[2][0] != &prev.Col("s").strs[2][0] {
		t.Error("an update in chunk 1 copied chunks 0 and 2")
	}
	if &up.rows[1][0] == &prev.rows[1][0] || &up.Col("i").ints[1][0] == &prev.Col("i").ints[1][0] {
		t.Error("an update in chunk 1 shared chunk 1")
	}
}

// TestPatchKeepsValuesAndHashes: in a projection patched after an insert,
// an update or a delete, every typed column holds each row's attribute as
// stored and that value's value.Hash — the shared chunks' as well as the
// re-decoded ones' — and a Mixed column holds neither.
func TestPatchKeepsValuesAndHashes(t *testing.T) {
	row := func(i int64) *value.Tuple {
		return value.NewTuple("i", value.Int(i), "s", value.String(string(rune('a'+i%26))),
			"f", value.Float(float64(i%7)-3), "d", value.Date(940101+i%30), "o", value.OID(i),
			"b", value.Bool(i%2 == 0), "set", value.NewSet(value.Int(i%4)), "m", value.Int(i))
	}
	const n = 2*chunkLen + 9
	r := make([]value.Value, n)
	for i := range r {
		r[i] = row(int64(i))
	}
	r[5] = value.NewTuple("i", value.Int(5), "s", value.String("x"), "f", value.Float(0), "d", value.Date(1),
		"o", value.OID(5), "b", value.Bool(true), "set", value.EmptySet(), "m", value.String("odd"))
	attrs := []string{"i", "s", "f", "d", "o", "b", "set", "m"}
	prev := New("E", r, attrs)
	updated := slices.Clone(r)
	updated[chunkLen+3] = row(9000)
	for name, rows := range map[string][]value.Value{
		"insert": append(slices.Clone(r), row(7000)),
		"update": updated,
		"delete": append(slices.Clone(r[:chunkLen+1]), r[chunkLen+2:]...),
	} {
		kept := make([]bool, len(rows))
		for i := range rows {
			kept[i] = i < prev.Len() && prev.Row(int32(i)) == rows[i]
		}
		p := patch(prev, rows, kept, attrs)
		for _, a := range attrs {
			c := p.Col(a)
			if a == "m" {
				if c.Kind() != Mixed || c.vals != nil || c.hashes != nil {
					t.Errorf("%s: Mixed column %s keeps values or hashes", name, a)
				}
				continue
			}
			for i := range int32(p.Len()) {
				want, _ := p.Row(i).(*value.Tuple).Get(a)
				if v := c.Value(i); v != want || c.Hash(i) != value.Hash(v) {
					t.Fatalf("%s: column %s row %d holds %v (hash %x), want %v (hash %x)",
						name, a, i, v, c.Hash(i), want, value.Hash(want))
				}
			}
		}
	}
}
