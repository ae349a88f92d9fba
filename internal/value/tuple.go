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
// Slot — and one slice of values; the names live in the shape only.
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

// NewTuple constructs a tuple from alternating name/value pairs. It panics on
// duplicate attribute names: the algebra's well-formedness conditions ("it is
// assumed no attribute naming conflicts occur", §3) are enforced at
// construction time so that every operator can rely on them.
func NewTuple(pairs ...any) *Tuple {
	if len(pairs)%2 != 0 {
		panic("value.NewTuple: odd number of arguments")
	}
	t := &Tuple{Shape: emptyShape, vals: make([]Value, len(pairs)/2)}
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			panic(fmt.Sprintf("value.NewTuple: argument %d is not a field name", i))
		}
		v, ok := pairs[i+1].(Value)
		if !ok {
			panic(fmt.Sprintf("value.NewTuple: field %q is not a Value", name))
		}
		if t.Shape = t.Shape.with(name); t.Shape == nil {
			panic(fmt.Sprintf("value: duplicate attribute %q in tuple", name))
		}
		t.vals[i/2] = v
	}
	return t
}

// EmptyTuple returns the tuple with no attributes, the unit of concatenation.
func EmptyTuple() *Tuple { return &Tuple{Shape: emptyShape} }

// NullTuple returns the tuple of shape s whose every attribute is Null — the
// padding an outer join gives a row without a partner.
func NullTuple(s *Shape) *Tuple {
	vals := make([]Value, len(s.names))
	for i := range vals {
		vals[i] = Null{}
	}
	return &Tuple{Shape: s, vals: vals}
}

// With returns a copy of t extended with the field name=v. It panics if the
// name is already present; use Except for updates.
func (t *Tuple) With(name string, v Value) *Tuple {
	to := t.Shape.with(name)
	if to == nil {
		panic(fmt.Sprintf("value: duplicate attribute %q in tuple", name))
	}
	vals := make([]Value, len(t.vals)+1)
	copy(vals, t.vals)
	vals[len(t.vals)] = v
	return &Tuple{Shape: to, vals: vals}
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
	vals := make([]Value, len(t.vals)+len(u.vals))
	copy(vals[copy(vals, t.vals):], u.vals)
	return &Tuple{Shape: to, vals: vals}, nil
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
	vals := make([]Value, len(d.slots))
	for i, slot := range d.slots {
		vals[i] = t.vals[slot]
	}
	return &Tuple{Shape: d.to, vals: vals}
}

// Except implements the paper's tuple "update" (semantics rule 3): existing
// attributes listed in updates get new values, attributes not listed keep
// their values, and new attributes are appended.
func (t *Tuple) Except(updates *Tuple) *Tuple {
	d, _ := t.derive(exceptOf, updates.Shape, nil) // an except cannot fail
	vals := make([]Value, len(d.to.names))
	copy(vals, t.vals)
	for i, slot := range d.slots {
		vals[slot] = updates.vals[i]
	}
	return &Tuple{Shape: d.to, vals: vals}
}

func (t *Tuple) String() string { return text(t) }
