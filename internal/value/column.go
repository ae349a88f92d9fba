package value

// A reference set — {⟨pid⟩}, the set-valued attribute a class reference
// becomes — is a set of unary tuples of one shape whose one value is of one
// int-backed kind. The store keeps such a set with its reference column
// (Set.Column): each element's value as raw int64 bits, in element order,
// beside the elements and their hashes. A join probing with the elements
// reads the column instead of following each element to its tuple and the
// tuple to its boxed value, and hashes and compares keys by (kind, bits)
// (HashBits, EqualBits) without boxing one. The elements stay what they are:
// the column is an index over them, built once when the set is stored and
// immutable after.

// refColumn is a set's reference column: bits[i] is IntBits of element i's
// one value, every element a tuple of shape whose value is of kind.
type refColumn struct {
	shape *Shape
	kind  Kind
	bits  []int64
}

// IntBits returns the int64 image of an Int, Date, OID or Bool value (false
// 0, true 1): the bits a reference column and the batch executor's int
// columns store. ok is false for every other kind.
func IntBits(v Value) (int64, bool) {
	switch cv := v.(type) {
	case Int:
		return int64(cv), true
	case Date:
		return int64(cv), true
	case OID:
		return int64(cv), true
	case Bool:
		if cv {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// HashBits is Hash of the value of kind k whose IntBits are b, computed
// without the value: k is Int, Date, OID or Bool.
func HashBits(k Kind, b int64) uint64 {
	switch k {
	case KindBool:
		return hashBool(b != 0)
	case KindDate:
		return hashScalar(byte(KindDate), uint64(uint32(b)))
	}
	return hashScalar(byte(k), uint64(b))
}

// EqualBits reports whether v equals the value of kind k whose IntBits are b.
func EqualBits(v Value, k Kind, b int64) bool {
	vb, ok := IntBits(v)
	return ok && vb == b && v.Kind() == k
}

// UnaryInts reports whether vals are unary tuples of one shape whose one
// value is of one kind IntBits maps, and returns that shape and kind: the
// elements of a reference set, or the p[pid] keys of a hash join's build side.
// It allocates nothing.
func UnaryInts(vals []Value) (*Shape, Kind, bool) {
	if len(vals) == 0 {
		return nil, KindNull, false
	}
	first, ok := vals[0].(*Tuple)
	if !ok || len(first.vals) != 1 {
		return nil, KindNull, false
	}
	kind := first.vals[0].Kind()
	for _, v := range vals {
		t, ok := v.(*Tuple)
		if !ok || t.Shape != first.Shape || t.vals[0].Kind() != kind {
			return nil, KindNull, false
		}
		if _, ok := IntBits(t.vals[0]); !ok {
			return nil, KindNull, false
		}
	}
	return first.Shape, kind, true
}

// Column returns s's reference column: every element is a tuple of shape
// whose one value is of kind, and bits[i] is IntBits of element i's value.
// Only a set built by CompactColumn has one — a set the store keeps; shape is
// nil on every other set. The slice is shared; callers must not modify it.
func (s *Set) Column() (shape *Shape, kind Kind, bits []int64) {
	if s.col == nil {
		return nil, KindNull, nil
	}
	return s.col.shape, s.col.kind, s.col.bits
}

// CompactColumn is Compact for a set that is to be stored and whose elements
// form a reference column (UnaryInts): the copy also carries the column. Up
// to SmallSet elements the copy is one allocation, column included. It is
// nil when s's elements form no column.
func (s *Set) CompactColumn() *Set {
	shape, kind, ok := UnaryInts(s.elems)
	if !ok {
		return nil
	}
	c := s.compactInto(newRefSet(len(s.elems)))
	c.col.shape, c.col.kind = shape, kind
	for _, e := range s.elems {
		b, _ := IntBits(e.(*Tuple).vals[0])
		c.col.bits = append(c.col.bits, b)
	}
	return c
}

// refBox is a reference set of at most SmallSet elements in one allocation:
// the set and its element and hash arrays (setBox), its column, and the
// column's bits B.
type refBox[E, H, B any] struct {
	setBox[E, H]
	c refColumn
	b B
}

func (b *refBox[E, H, B]) withBits(elems []Value, hashes []uint64, bits []int64) *Set {
	b.c.bits = bits
	b.s.col = &b.c
	return b.with(elems, hashes)
}

// newRefSet returns an empty set with capacity for n elements and an empty
// column with capacity for their bits; n is at least 1.
func newRefSet(n int) *Set {
	switch n {
	case 1:
		b := new(refBox[[1]Value, [1]uint64, [1]int64])
		return b.withBits(b.e[:0], b.h[:0], b.b[:0])
	case 2:
		b := new(refBox[[2]Value, [2]uint64, [2]int64])
		return b.withBits(b.e[:0], b.h[:0], b.b[:0])
	case 3:
		b := new(refBox[[3]Value, [3]uint64, [3]int64])
		return b.withBits(b.e[:0], b.h[:0], b.b[:0])
	case 4:
		b := new(refBox[[4]Value, [4]uint64, [4]int64])
		return b.withBits(b.e[:0], b.h[:0], b.b[:0])
	case 5:
		b := new(refBox[[5]Value, [5]uint64, [5]int64])
		return b.withBits(b.e[:0], b.h[:0], b.b[:0])
	case 6:
		b := new(refBox[[6]Value, [6]uint64, [6]int64])
		return b.withBits(b.e[:0], b.h[:0], b.b[:0])
	case 7:
		b := new(refBox[[7]Value, [7]uint64, [7]int64])
		return b.withBits(b.e[:0], b.h[:0], b.b[:0])
	case smallTable:
		b := new(refBox[[smallTable]Value, [smallTable]uint64, [smallTable]int64])
		return b.withBits(b.e[:0], b.h[:0], b.b[:0])
	}
	s := NewSetCap(n)
	s.col = &refColumn{bits: make([]int64, 0, n)}
	return s
}
