package value

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Shape is the layout of a tuple: its attribute names in declaration order,
// with everything that depends on the names alone resolved once — the
// per-name constants of Hash and the name-sorted slot order canonical
// comparison walks. Shapes are immutable and canonical: there is one Shape
// per distinct name list, so rows of one layout share it by pointer and a
// row itself is a shape pointer and its values.
//
// Canonicity is structural. Every shape is a node of one trie rooted at the
// empty shape whose edges are "with name"; a name list is reached by exactly
// one path. The other derivations (concat, except, subscript, drop) resolve
// through the trie once and are memoized on the shape they start from, with
// their duplicate/conflict/missing-attribute checks done at that time, so
// With/Concat/Subscript/Drop/Except on a seen layout are one lookup and one
// allocation (newTuple). The memo is copy-on-write behind an atomic pointer: hits
// take no lock and allocate nothing; misses serialize on shapeMu. Shapes are
// never freed (see ShapeCount).
type Shape struct {
	names  []string
	hashes []uint64 // hashes[i] is names[i]'s field constant in Hash
	order  []int    // slots in ascending name order
	memo   atomic.Pointer[derivations]
}

// derivations is one immutable generation of a shape's memo. A shape has
// many with-edges only at the root of the trie, hence the map; the shapes it
// is concatenated with and the attribute lists it is subscripted by are a
// handful, found by a scan that compares pointers.
type derivations struct {
	with map[string]*Shape
	rest []*derivation
}

// derivation is a memoized concat or except (keyed by the other operand's
// shape) or subscript or drop (keyed by the attribute list). For subscript
// and drop, slots[i] is the source slot of result slot i; for except,
// slots[i] is the result slot of update i.
type derivation struct {
	kind  derivationKind
	other *Shape
	attrs []string
	to    *Shape
	slots []int
}

type derivationKind uint8

const (
	concatOf derivationKind = iota
	exceptOf
	subscriptOf
	dropOf
)

var (
	emptyShape    = newShape(nil)
	noDerivations derivations
	shapeMu       sync.Mutex // serializes memo misses
	shapeCount    atomic.Int64
)

func newShape(names []string) *Shape {
	s := &Shape{names: names, hashes: make([]uint64, len(names)), order: make([]int, len(names))}
	for i, n := range names {
		s.hashes[i] = fnvString(fnvOffset64, n) * fnvPrime64
		// Insertion sort: attribute lists are short and often already sorted.
		j := i
		for ; j > 0 && names[s.order[j-1]] > n; j-- {
			s.order[j] = s.order[j-1]
		}
		s.order[j] = i
	}
	shapeCount.Add(1)
	return s
}

// ShapeCount reports how many distinct tuple layouts the process has built.
// Shapes are never freed, and a query can mint one per novel attribute list
// (`select (x = …)`), so the number is worth watching on a server.
func ShapeCount() int64 { return shapeCount.Load() }

// ShapeOf returns the shape with exactly the given attribute names, or an
// error if a name repeats.
func ShapeOf(names []string) (*Shape, error) {
	s := emptyShape
	for _, n := range names {
		if s = s.with(n); s == nil {
			return nil, fmt.Errorf("value: duplicate attribute %q in tuple", n)
		}
	}
	return s, nil
}

// Len reports the number of attributes.
func (s *Shape) Len() int { return len(s.names) }

// Names returns the attribute names in declaration order. The slice is
// shared; callers must not modify it.
func (s *Shape) Names() []string { return s.names }

// Has reports whether there is an attribute called name.
func (s *Shape) Has(name string) bool {
	_, ok := s.Slot(name)
	return ok
}

// Slot returns the position of the named attribute.
func (s *Shape) Slot(name string) (int, bool) {
	for i, n := range s.names {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// Alloc allocates a tuple of this shape and returns it with its slots, one
// per attribute in declaration order, all nil. The caller fills every slot
// before the tuple is shared; from then on the tuple is immutable. Up to
// eight slots are one allocation with the tuple.
func (s *Shape) Alloc() (*Tuple, []Value) {
	t := newTuple(s)
	return t, t.vals
}

// Block is room for a number of tuples of one shape, allocated at once: an
// operator that knows how many rows it will build (a nestjoin builds one per
// left row) makes two allocations for all of them instead of one per row. Its
// tuples are handed out by Alloc. They share the block's two arrays, so one
// live tuple keeps all of them alive.
type Block struct {
	shape  *Shape
	tuples []Tuple
	vals   []Value
}

// Block returns room for n tuples of this shape.
func (s *Shape) Block(n int) Block {
	return Block{shape: s, tuples: make([]Tuple, n), vals: make([]Value, n*len(s.names))}
}

// Shape returns the shape of the block's tuples; nil for the zero Block.
func (b *Block) Shape() *Shape { return b.shape }

// Alloc is Shape.Alloc from the block: its next tuple, or a tuple of its own
// once the block is used up. The caller fills every slot before the tuple is
// shared.
func (b *Block) Alloc() (*Tuple, []Value) {
	if len(b.tuples) == 0 {
		return b.shape.Alloc()
	}
	n := len(b.shape.names)
	t := &b.tuples[0]
	t.Shape, t.vals = b.shape, b.vals[:n:n]
	b.tuples, b.vals = b.tuples[1:], b.vals[n:]
	return t, t.vals
}

// Concat returns the shape of s's attributes followed by u's, or an error if
// the two share a name. An operator whose operands keep their layouts derives
// its output shape with it once instead of once per row.
func (s *Shape) Concat(u *Shape) (*Shape, error) {
	d, err := s.derive(concatOf, u, nil)
	if err != nil {
		return nil, err
	}
	return d.to, nil
}

// With returns the shape of s's attributes followed by name, or an error if
// s has it: the layout of Tuple.With, derived without building the tuple.
func (s *Shape) With(name string) (*Shape, error) {
	if to := s.with(name); to != nil {
		return to, nil
	}
	return nil, fmt.Errorf("value: duplicate attribute %q in tuple", name)
}

// Drop returns the shape of a tuple of this shape without the named
// attributes (absent ones are ignored): the layout of Tuple.Drop, derived
// without building the tuple. Its attributes keep their order.
func (s *Shape) Drop(attrs []string) *Shape {
	d, _ := s.derive(dropOf, nil, attrs) // a drop cannot fail
	return d.to
}

func (s *Shape) derived() *derivations {
	if d := s.memo.Load(); d != nil {
		return d
	}
	return &noDerivations
}

// with returns the shape extended by name, or nil if s already has it.
func (s *Shape) with(name string) *Shape {
	if to := s.derived().with[name]; to != nil {
		return to
	}
	shapeMu.Lock()
	defer shapeMu.Unlock()
	return s.withLocked(name)
}

func (s *Shape) withLocked(name string) *Shape {
	d := *s.derived()
	if to := d.with[name]; to != nil {
		return to
	}
	if s.Has(name) {
		return nil
	}
	to := newShape(append(s.names[:len(s.names):len(s.names)], name))
	with := make(map[string]*Shape, len(d.with)+1)
	for n, w := range d.with {
		with[n] = w
	}
	with[name] = to
	d.with = with
	s.memo.Store(&d)
	return to
}

// derive looks a derivation up and, the first time, resolves it: a concat
// with, or an except by, a tuple of shape other; a subscript to the listed
// attributes in list order; a drop of the listed attributes (absent ones are
// ignored).
func (s *Shape) derive(kind derivationKind, other *Shape, attrs []string) (*derivation, error) {
	find := func() *derivation {
		for _, d := range s.derived().rest {
			if d.kind == kind && d.other == other && slices.Equal(d.attrs, attrs) {
				return d
			}
		}
		return nil
	}
	if d := find(); d != nil {
		return d, nil
	}
	shapeMu.Lock()
	defer shapeMu.Unlock()
	if d := find(); d != nil {
		return d, nil
	}
	d := &derivation{kind: kind, other: other, attrs: slices.Clone(attrs), to: emptyShape}
	switch kind {
	case concatOf:
		d.to = s
		for _, n := range other.names {
			if d.to = d.to.withLocked(n); d.to == nil {
				return nil, fmt.Errorf("value: concatenation conflict on attribute %q", n)
			}
		}
	case exceptOf:
		d.to = s
		for _, n := range other.names {
			slot, ok := s.Slot(n)
			if !ok {
				slot, d.to = len(d.to.names), d.to.withLocked(n)
			}
			d.slots = append(d.slots, slot)
		}
	case subscriptOf:
		for _, a := range attrs {
			slot, ok := s.Slot(a)
			if !ok {
				return nil, fmt.Errorf("value: subscript on missing attribute %q", a)
			}
			if d.to = d.to.withLocked(a); d.to == nil {
				return nil, fmt.Errorf("value: subscript repeats attribute %q", a)
			}
			d.slots = append(d.slots, slot)
		}
	case dropOf:
		for i, n := range s.names {
			if !slices.Contains(attrs, n) {
				d.to = d.to.withLocked(n)
				d.slots = append(d.slots, i)
			}
		}
	}
	memo := *s.derived()
	memo.rest = append(memo.rest[:len(memo.rest):len(memo.rest)], d)
	s.memo.Store(&memo)
	return d, nil
}
