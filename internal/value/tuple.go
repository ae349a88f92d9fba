package value

import (
	"fmt"
	"sync/atomic"
)

// Tuple is a record value built with the paper's ⟨ ⟩ constructor: an unordered
// mapping from attribute names to values. Field declaration order is preserved
// for printing, but equality, hashing and comparison treat tuples as
// name→value functions, so ⟨a=1, b=2⟩ equals ⟨b=2, a=1⟩.
//
// A tuple is its layout — the embedded canonical *Shape, shared by every
// tuple with the same attribute list, which also supplies Len, Names, Has and
// Slot — and one slice of values; the names live in the shape only. Up to
// eight values sit in the same allocation as the tuple (newTuple), so a row
// is one object and reading a slot touches the memory the header is in.
//
// A Tuple is immutable once its constructor returns: every "update" builds a
// new tuple. The one word that changes afterwards is hash, the memo of the
// deep Hash (0 = not yet computed), so a stored row is hashed once in its
// lifetime however many queries touch it. It is the only lazily filled state
// on any value, and it is read and written atomically — racing first calls
// store the same number.
type Tuple struct {
	*Shape
	vals []Value
	hash atomic.Uint64
}

// Kind reports KindTuple.
func (*Tuple) Kind() Kind { return KindTuple }

// box is a tuple allocated together with its slots, the array A.
type box[A any] struct {
	t Tuple
	a A
}

func (b *box[A]) with(vals []Value) *Tuple {
	b.t.vals = vals
	return &b.t
}

// newTuple allocates a tuple of shape s with one nil slot per attribute,
// which the caller fills before the tuple is shared: every constructor ends
// here. Up to eight slots are one allocation with the header; a wider tuple
// keeps a separate array.
func newTuple(s *Shape) *Tuple {
	var t *Tuple
	switch n := len(s.names); n {
	case 0:
		t = new(Tuple)
	case 1:
		b := new(box[[1]Value])
		t = b.with(b.a[:])
	case 2:
		b := new(box[[2]Value])
		t = b.with(b.a[:])
	case 3:
		b := new(box[[3]Value])
		t = b.with(b.a[:])
	case 4:
		b := new(box[[4]Value])
		t = b.with(b.a[:])
	case 5:
		b := new(box[[5]Value])
		t = b.with(b.a[:])
	case 6:
		b := new(box[[6]Value])
		t = b.with(b.a[:])
	case 7:
		b := new(box[[7]Value])
		t = b.with(b.a[:])
	case 8:
		b := new(box[[8]Value])
		t = b.with(b.a[:])
	default:
		t = &Tuple{vals: make([]Value, n)}
	}
	t.Shape = s
	return t
}

// NewTuple constructs a tuple from alternating name/value pairs. It panics on
// duplicate attribute names: the algebra's well-formedness conditions ("it is
// assumed no attribute naming conflicts occur", §3) are enforced at
// construction time so that every operator can rely on them.
func NewTuple(pairs ...any) *Tuple {
	if len(pairs)%2 != 0 {
		panic("value.NewTuple: odd number of arguments")
	}
	s := emptyShape
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			panic(fmt.Sprintf("value.NewTuple: argument %d is not a field name", i))
		}
		if _, ok := pairs[i+1].(Value); !ok {
			panic(fmt.Sprintf("value.NewTuple: field %q is not a Value", name))
		}
		if s = s.with(name); s == nil {
			panic(fmt.Sprintf("value: duplicate attribute %q in tuple", name))
		}
	}
	t := newTuple(s)
	for i := range t.vals {
		t.vals[i] = pairs[2*i+1].(Value)
	}
	return t
}

// EmptyTuple returns the tuple with no attributes, the unit of concatenation.
func EmptyTuple() *Tuple { return newTuple(emptyShape) }

// NullTuple returns the tuple of shape s whose every attribute is Null — the
// padding an outer join gives a row without a partner.
func NullTuple(s *Shape) *Tuple {
	t := newTuple(s)
	for i := range t.vals {
		t.vals[i] = Null{}
	}
	return t
}

// With returns a copy of t extended with the field name=v, or an error if
// the name is already present; use Except for updates.
func (t *Tuple) With(name string, v Value) (*Tuple, error) {
	to, err := t.Shape.With(name)
	if err != nil {
		return nil, err
	}
	w := newTuple(to)
	w.vals[copy(w.vals, t.vals)] = v
	return w, nil
}

// Get returns the value of the named attribute.
func (t *Tuple) Get(name string) (Value, bool) {
	if i, ok := t.Shape.Slot(name); ok {
		return t.vals[i], true
	}
	return nil, false
}

// MustGet returns the value of the named attribute and panics if absent.
// It is used where well-typedness has already been established.
func (t *Tuple) MustGet(name string) Value {
	v, ok := t.Get(name)
	if !ok {
		panic(fmt.Sprintf("value: tuple %v has no attribute %q", t, name))
	}
	return v
}

// Vals returns the attribute values in declaration order, slot by slot as the
// shape numbers them. The slice is shared; callers must not modify it.
func (t *Tuple) Vals() []Value { return t.vals }

// At returns the i'th attribute name and value in declaration order.
func (t *Tuple) At(i int) (string, Value) { return t.Shape.names[i], t.vals[i] }

// Concat implements the paper's tuple concatenation x ∘ y. It returns an
// error if the operands share an attribute name, which the algebra's
// well-formedness conditions forbid.
func (t *Tuple) Concat(u *Tuple) (*Tuple, error) {
	to, err := t.Shape.Concat(u.Shape)
	if err != nil {
		return nil, err
	}
	c := newTuple(to)
	copy(c.vals[copy(c.vals, t.vals):], u.vals)
	return c, nil
}

// Subscript implements the paper's tuple subscription e[a1, ..., an]
// (semantics rule 2): the sub-tuple with exactly the named attributes. A
// repeated attribute is an error, like any other duplicate in a tuple.
func (t *Tuple) Subscript(attrs []string) (*Tuple, error) {
	d, err := t.derive(subscriptOf, nil, attrs)
	if err != nil {
		return nil, err
	}
	return t.gather(d), nil
}

// Drop returns the tuple without the named attributes (those absent are
// ignored). It is the complement of Subscript, used by nest and unnest.
func (t *Tuple) Drop(attrs []string) *Tuple {
	d, _ := t.derive(dropOf, nil, attrs) // a drop cannot fail
	return t.gather(d)
}

// gather builds the tuple of shape d.to from t's values at d.slots.
func (t *Tuple) gather(d *derivation) *Tuple {
	g := newTuple(d.to)
	for i, slot := range d.slots {
		g.vals[i] = t.vals[slot]
	}
	return g
}

// Except implements the paper's tuple "update" (semantics rule 3): existing
// attributes listed in updates get new values, attributes not listed keep
// their values, and new attributes are appended.
func (t *Tuple) Except(updates *Tuple) *Tuple {
	d, _ := t.derive(exceptOf, updates.Shape, nil) // an except cannot fail
	e := newTuple(d.to)
	copy(e.vals, t.vals)
	for i, slot := range d.slots {
		e.vals[slot] = updates.vals[i]
	}
	return e
}

func (t *Tuple) String() string { return text(t) }
