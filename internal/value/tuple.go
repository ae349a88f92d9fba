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
// A Tuple is immutable once its constructor returns: every "update" builds a
// new tuple. The one word that changes afterwards is hash, the memo of the
// deep Hash (0 = not yet computed), so a stored row is hashed once in its
// lifetime however many queries touch it. It is the only lazily filled state
// on any value, and it is read and written atomically — racing first calls
// store the same number.
type Tuple struct {
	names []string
	vals  []Value
	hash  atomic.Uint64
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
	t := &Tuple{
		names: make([]string, 0, len(pairs)/2),
		vals:  make([]Value, 0, len(pairs)/2),
	}
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			panic(fmt.Sprintf("value.NewTuple: argument %d is not a field name", i))
		}
		v, ok := pairs[i+1].(Value)
		if !ok {
			panic(fmt.Sprintf("value.NewTuple: field %q is not a Value", name))
		}
		if t.Has(name) {
			panic(fmt.Sprintf("value: duplicate attribute %q in tuple", name))
		}
		t.names = append(t.names, name)
		t.vals = append(t.vals, v)
	}
	return t
}

// EmptyTuple returns the tuple with no attributes, the unit of concatenation.
func EmptyTuple() *Tuple { return &Tuple{} }

// With returns a copy of t extended with the field name=v. It panics if the
// name is already present; use Except for updates.
func (t *Tuple) With(name string, v Value) *Tuple {
	if t.Has(name) {
		panic(fmt.Sprintf("value: duplicate attribute %q in tuple", name))
	}
	nt := &Tuple{
		names: append(append(make([]string, 0, len(t.names)+1), t.names...), name),
		vals:  append(append(make([]Value, 0, len(t.vals)+1), t.vals...), v),
	}
	return nt
}

// Len reports the number of attributes.
func (t *Tuple) Len() int { return len(t.names) }

// Names returns the attribute names in declaration order. The slice is shared;
// callers must not modify it.
func (t *Tuple) Names() []string { return t.names }

// Has reports whether the tuple has an attribute called name.
func (t *Tuple) Has(name string) bool {
	for _, n := range t.names {
		if n == name {
			return true
		}
	}
	return false
}

// Get returns the value of the named attribute.
func (t *Tuple) Get(name string) (Value, bool) {
	for i, n := range t.names {
		if n == name {
			return t.vals[i], true
		}
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

// At returns the i'th attribute name and value in declaration order.
func (t *Tuple) At(i int) (string, Value) { return t.names[i], t.vals[i] }

// Concat implements the paper's tuple concatenation x ∘ y. It returns an
// error if the operands share an attribute name, which the algebra's
// well-formedness conditions forbid.
func (t *Tuple) Concat(u *Tuple) (*Tuple, error) {
	for _, n := range u.names {
		if t.Has(n) {
			return nil, fmt.Errorf("value: concatenation conflict on attribute %q", n)
		}
	}
	return &Tuple{
		names: append(append(make([]string, 0, len(t.names)+len(u.names)), t.names...), u.names...),
		vals:  append(append(make([]Value, 0, len(t.vals)+len(u.vals)), t.vals...), u.vals...),
	}, nil
}

// Subscript implements the paper's tuple subscription e[a1, ..., an]
// (semantics rule 2): the sub-tuple with exactly the named attributes.
func (t *Tuple) Subscript(attrs []string) (*Tuple, error) {
	nt := &Tuple{names: make([]string, 0, len(attrs)), vals: make([]Value, 0, len(attrs))}
	for _, a := range attrs {
		v, ok := t.Get(a)
		if !ok {
			return nil, fmt.Errorf("value: subscript on missing attribute %q", a)
		}
		nt.names = append(nt.names, a)
		nt.vals = append(nt.vals, v)
	}
	return nt, nil
}

// Drop returns the tuple without the named attributes (those absent are
// ignored). It is the complement of Subscript, used by nest and unnest.
func (t *Tuple) Drop(attrs []string) *Tuple {
	drop := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		drop[a] = true
	}
	nt := &Tuple{}
	for i, n := range t.names {
		if !drop[n] {
			nt.names = append(nt.names, n)
			nt.vals = append(nt.vals, t.vals[i])
		}
	}
	return nt
}

// Except implements the paper's tuple "update" (semantics rule 3): existing
// attributes listed in updates get new values, attributes not listed keep
// their values, and new attributes are appended.
func (t *Tuple) Except(updates *Tuple) *Tuple {
	nt := &Tuple{
		names: append(make([]string, 0, len(t.names)+updates.Len()), t.names...),
		vals:  append(make([]Value, 0, len(t.vals)+updates.Len()), t.vals...),
	}
	for i, n := range updates.names {
		replaced := false
		for j, m := range nt.names {
			if m == n {
				nt.vals[j] = updates.vals[i]
				replaced = true
				break
			}
		}
		if !replaced {
			nt.names = append(nt.names, n)
			nt.vals = append(nt.vals, updates.vals[i])
		}
	}
	return nt
}

func (t *Tuple) String() string { return text(t) }
