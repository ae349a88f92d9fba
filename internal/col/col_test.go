package col

import (
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
		if b, ok := Bits(c.v); b != c.bits || ok != c.ok {
			t.Errorf("Bits(%v) = %d, %t, want %d, %t", c.v, b, ok, c.bits, c.ok)
		}
	}
}
