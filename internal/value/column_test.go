package value

import (
	"math"
	"math/rand"
	"testing"
)

// TestBitsAgreeWithHashAndEqual: for every int-backed value, HashBits of its
// kind and IntBits is its Hash, and EqualBits of a value against (kind, bits)
// is Equal against it — including an Int and an OID of equal bits, and a
// negative Date, whose Hash folds only its low 32 bits.
func TestBitsAgreeWithHashAndEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	vals := []Value{Bool(true), Bool(false), Int(0), Int(-1), Int(math.MinInt64), Int(7),
		Date(940101), Date(-3), OID(0), OID(7), OID(1 << 40), OID(math.MaxUint64)}
	for range 50 {
		vals = append(vals, Int(rng.Int63()-rng.Int63()), OID(rng.Uint64()), Date(rng.Int31()))
	}
	others := append(vals[:len(vals):len(vals)], Null{}, Float(7), String("7"), NewTuple("pid", OID(7)), EmptySet())
	for _, v := range vals {
		b, ok := IntBits(v)
		if !ok {
			t.Fatalf("IntBits(%v) not ok", v)
		}
		if got, want := HashBits(v.Kind(), b), Hash(v); got != want {
			t.Errorf("HashBits(%v, %d) = %#x, Hash(%v) = %#x", v.Kind(), b, got, v, want)
		}
		for _, w := range others {
			if got, want := EqualBits(w, v.Kind(), b), Equal(w, v); got != want {
				t.Errorf("EqualBits(%v, %v, %d) = %v, Equal(%v, %v) = %v", w, v.Kind(), b, got, w, v, want)
			}
		}
	}
}

// TestCompactColumn: a set of unary int-backed tuples of one shape and kind
// compacts with a column that agrees with its elements, in one allocation up
// to SmallSet elements; any other set gets no copy, and Compact and Clone of
// a set with a column have none.
func TestCompactColumn(t *testing.T) {
	refs := func(n int, v func(i int) Value) *Set {
		s := EmptySet()
		for i := range n {
			s.Add(NewTuple("pid", v(i)))
		}
		return s
	}
	oid := func(i int) Value { return OID(100 + i) }
	for _, n := range []int{1, 2, SmallSet, SmallSet + 1, 40} {
		src := refs(n, oid)
		c := src.CompactColumn()
		shape, kind, bits := c.Column()
		if shape != src.Elems()[0].(*Tuple).Shape || kind != KindOID || len(bits) != n || !Equal(c, src) {
			t.Fatalf("CompactColumn of %d refs: column (%v, %v, %d bits), equal %v", n, shape, kind, len(bits), Equal(c, src))
		}
		for i, e := range c.Elems() {
			if b, _ := IntBits(e.(*Tuple).vals[0]); b != bits[i] {
				t.Fatalf("CompactColumn of %d refs: bit %d is %d, element %v", n, i, bits[i], e)
			}
		}
		if s, _, _ := src.Column(); s != nil {
			t.Fatalf("CompactColumn of %d refs gave its source a column", n)
		}
		for name, cp := range map[string]*Set{"Compact": c.Compact(), "Clone": c.Clone()} {
			if s, _, _ := cp.Column(); s != nil || !Equal(cp, c) {
				t.Fatalf("%s of a set with a column: column %v, equal %v", name, s, Equal(cp, c))
			}
		}
		if n <= SmallSet {
			if got := testing.AllocsPerRun(10, func() { setSink = src.CompactColumn() }); got != 1 {
				t.Errorf("CompactColumn of %d refs: %.0f allocations, want 1", n, got)
			}
		}
	}
	for name, s := range map[string]*Set{
		"empty":      EmptySet(),
		"two shapes": NewSet(NewTuple("pid", OID(1)), NewTuple("qid", OID(2))),
		"two kinds":  NewSet(NewTuple("pid", OID(1)), NewTuple("pid", Int(2))),
		"binary":     NewSet(NewTuple("pid", OID(1), "w", Int(1))),
		"floats":     refs(3, func(i int) Value { return Float(i) }),
		"atoms":      NewSet(OID(1), OID(2)),
	} {
		if c := s.CompactColumn(); c != nil {
			shape, _, _ := c.Column()
			t.Errorf("%s: CompactColumn built a column of %v", name, shape)
		}
	}
}

var setSink *Set
