package value

// Set is a finite set value built with the paper's { } constructor. Element
// order is insignificant; duplicates are eliminated on insertion using deep
// equality.
//
// A set is three flat arrays: the elements in insertion order, each element's
// Hash beside it, and the int32 chain table that finds a hash's positions
// (absent while the set has at most smallTable elements — see hashTable).
// Every probe compares stored hashes before it calls Equal and no element is
// ever hashed twice. A set the store keeps of unary int-backed references
// ({⟨pid⟩}) has a fourth: each element's value as int64 bits (Column, built
// by CompactColumn), which joins probe instead of the elements. A set sized for at most smallTable elements (NewSetCap)
// is one allocation: the header, the elements and the hashes together. A Set
// must not be mutated after it has been shared; it carries no lazily filled
// state, so a shared set is safe for concurrent readers. The int32 positions
// cap a set at 2³¹−1 elements; Add panics beyond.
type Set struct {
	elems []Value
	idx   hashTable
	col   *refColumn // nil but on a stored reference set
}

// Kind reports KindSet.
func (*Set) Kind() Kind { return KindSet }

// NewSet builds a set from the given elements, eliminating duplicates.
func NewSet(elems ...Value) *Set { return NewSetFromSlice(elems) }

// EmptySet returns a new empty set.
func EmptySet() *Set { return &Set{} }

// setBox is a set allocated together with its element array E and hash
// array H.
type setBox[E, H any] struct {
	s Set
	e E
	h H
}

func (b *setBox[E, H]) with(elems []Value, hashes []uint64) *Set {
	b.s.elems, b.s.idx.hashes = elems, hashes
	return &b.s
}

// NewSetCap returns an empty set with capacity for n elements. Up to
// smallTable elements the header and both arrays are one allocation; a larger
// set has three.
func NewSetCap(n int) *Set {
	switch n {
	case 0:
		return &Set{}
	case 1:
		b := new(setBox[[1]Value, [1]uint64])
		return b.with(b.e[:0], b.h[:0])
	case 2:
		b := new(setBox[[2]Value, [2]uint64])
		return b.with(b.e[:0], b.h[:0])
	case 3:
		b := new(setBox[[3]Value, [3]uint64])
		return b.with(b.e[:0], b.h[:0])
	case 4:
		b := new(setBox[[4]Value, [4]uint64])
		return b.with(b.e[:0], b.h[:0])
	case 5:
		b := new(setBox[[5]Value, [5]uint64])
		return b.with(b.e[:0], b.h[:0])
	case 6:
		b := new(setBox[[6]Value, [6]uint64])
		return b.with(b.e[:0], b.h[:0])
	case 7:
		b := new(setBox[[7]Value, [7]uint64])
		return b.with(b.e[:0], b.h[:0])
	case smallTable:
		b := new(setBox[[smallTable]Value, [smallTable]uint64])
		return b.with(b.e[:0], b.h[:0])
	}
	return &Set{elems: make([]Value, 0, n), idx: hashTable{hashes: make([]uint64, 0, n)}}
}

// NewSetFromSlice builds a set from elems with full duplicate elimination —
// repeated Add into a pre-sized set. elems is not retained.
func NewSetFromSlice(elems []Value) *Set {
	s := NewSetCap(len(elems))
	for _, e := range elems {
		s.add(e, Hash(e))
	}
	return s
}

// NewSetOwned builds the set of elems, whose Hash values hashes holds
// aligned, taking ownership of both slices: duplicates are dropped in place
// and the set keeps the two arrays, so nothing is copied or hashed. The
// caller must not use either slice afterwards.
func NewSetOwned(elems []Value, hashes []uint64) *Set {
	s := &Set{elems: elems[:0], idx: hashTable{hashes: hashes[:0]}}
	for i, e := range elems {
		if s.find(e, hashes[i]) {
			continue
		}
		// Position n ≤ i: an element moves only once a duplicate has been
		// dropped, so a set without one writes no pointer (no write barrier).
		if n := len(s.elems); n < i {
			elems[n] = e
		}
		s.elems = elems[:len(s.elems)+1]
		s.idx.push(hashes[i])
	}
	return s
}

// Add inserts v unless an equal element is already present. It reports
// whether the set grew. Add must only be called while the set is being
// built, before it is shared.
func (s *Set) Add(v Value) bool { return s.add(v, Hash(v)) }

// AddHashed is Add for a caller that holds v's Hash h, so that a value moving
// into a set is never hashed again.
func (s *Set) AddHashed(v Value, h uint64) bool { return s.add(v, h) }

func (s *Set) add(v Value, h uint64) bool {
	if s.find(v, h) {
		return false
	}
	s.push(v, h)
	return true
}

// push appends v, whose hash is h and which the caller knows to be absent.
func (s *Set) push(v Value, h uint64) {
	if cap(s.elems) == 0 {
		// The first element sizes both arrays for a small set at once, in
		// one allocation, instead of growing them through capacities 1, 2,
		// 4, 8.
		a := new(struct {
			e [smallTable]Value
			h [smallTable]uint64
		})
		s.elems, s.idx.hashes = a.e[:0], a.h[:0]
	}
	s.elems = append(s.elems, v)
	s.idx.push(h)
}

// find reports whether an element equal to v, whose hash is h, is present.
func (s *Set) find(v Value, h uint64) bool {
	for i := s.idx.first(h); i >= 0; i = s.idx.after(i) {
		if Equal(s.elems[i], v) {
			return true
		}
	}
	return false
}

// Clone returns an independent copy of the set sharing only the (immutable)
// element values: three exactly allocated array copies, no element rehashed,
// and no reference column, since the clone is there to be grown.
// Growing the clone therefore never writes into storage shared with the
// original — the original may keep being read concurrently while the clone
// is extended. This is what the storage layer's copy-on-write extent
// materialization builds new versions from.
func (s *Set) Clone() *Set {
	c := &Set{elems: make([]Value, len(s.elems)), idx: s.idx.clone()}
	copy(c.elems, s.elems)
	return c
}

// SmallSet is the largest set NewSetCap and Compact make as one allocation;
// such a set has no chain table.
const SmallSet = smallTable

// Compact returns an exact-size copy of s: arrays of capacity Len, and above
// SmallSet a chain table built for Len entries. The copy shares no array with
// s, so s may go on being built or be Reset — the nestjoin builds every group
// in one scratch set and emits its Compact — and extending either never
// writes into the other. It has no reference column (see CompactColumn).
func (s *Set) Compact() *Set { return s.compactInto(NewSetCap(len(s.elems))) }

// compactInto copies s's elements and hashes into c, an empty set with
// capacity for them, and returns it.
func (s *Set) compactInto(c *Set) *Set {
	c.elems = append(c.elems, s.elems...)
	c.idx.hashes = append(c.idx.hashes, s.idx.hashes...)
	if n := len(s.elems); n > smallTable {
		c.idx.rehash(n)
	}
	return c
}

// Reset empties s for the next elements. Arrays sized for at most SmallSet
// elements are kept; larger ones are dropped, so the next elements are
// sized by their own count and not by the largest set s ever held. Like Add,
// it is for a set that has not been shared.
func (s *Set) Reset() {
	if cap(s.elems) > smallTable {
		*s = Set{}
		return
	}
	s.elems, s.idx.hashes = s.elems[:0], s.idx.hashes[:0]
}

// AddAll inserts every element of t into s.
func (s *Set) AddAll(t *Set) {
	for i, e := range t.elems {
		s.add(e, t.idx.hashes[i])
	}
}

// Len reports the cardinality of the set.
func (s *Set) Len() int { return len(s.elems) }

// Elems returns the elements in insertion order. The slice is shared; callers
// must not modify it.
func (s *Set) Elems() []Value { return s.elems }

// Hashes returns each element's Hash, aligned with Elems. The slice is
// shared; callers must not modify it.
func (s *Set) Hashes() []uint64 { return s.idx.hashes }

// Contains reports whether an element equal to v is in the set.
func (s *Set) Contains(v Value) bool {
	return len(s.elems) > 0 && s.find(v, Hash(v))
}

// SubsetOf reports s ⊆ t.
func (s *Set) SubsetOf(t *Set) bool {
	if s.Len() > t.Len() {
		return false
	}
	for i, e := range s.elems {
		if !t.find(e, s.idx.hashes[i]) {
			return false
		}
	}
	return true
}

// ProperSubsetOf reports s ⊂ t.
func (s *Set) ProperSubsetOf(t *Set) bool {
	return s.Len() < t.Len() && s.SubsetOf(t)
}

// Union returns s ∪ t as a fresh set.
func (s *Set) Union(t *Set) *Set {
	r := NewSetCap(s.Len() + t.Len())
	r.AddAll(s)
	r.AddAll(t)
	return r
}

// Intersect returns s ∩ t as a fresh set.
func (s *Set) Intersect(t *Set) *Set {
	small, big := s, t
	if big.Len() < small.Len() {
		small, big = big, small
	}
	r := NewSetCap(small.Len())
	for i, e := range small.elems {
		if h := small.idx.hashes[i]; big.find(e, h) {
			r.push(e, h)
		}
	}
	return r
}

// Diff returns s − t as a fresh set.
func (s *Set) Diff(t *Set) *Set {
	r := NewSetCap(s.Len())
	for i, e := range s.elems {
		if h := s.idx.hashes[i]; !t.find(e, h) {
			r.push(e, h)
		}
	}
	return r
}

// Flatten implements the paper's multiple union ∪(e) (semantics rule 1):
// the union of all elements of s, each of which must itself be a set.
func (s *Set) Flatten() (*Set, error) {
	r := NewSetCap(s.Len())
	for _, e := range s.elems {
		inner, ok := e.(*Set)
		if !ok {
			return nil, &KindError{Op: "flatten", Want: KindSet, Got: e.Kind()}
		}
		r.AddAll(inner)
	}
	return r, nil
}

// Sorted returns the elements in the canonical total order of Compare.
// The receiver is unchanged.
func (s *Set) Sorted() []Value {
	out := append(make([]Value, 0, len(s.elems)), s.elems...)
	var c canon
	c.sort(out, nil)
	return out
}

func (s *Set) String() string { return text(s) }

// KindError reports an operation applied to a value of the wrong kind.
type KindError struct {
	Op   string
	Want Kind
	Got  Kind
}

func (e *KindError) Error() string {
	return "value: " + e.Op + ": want " + e.Want.String() + ", got " + e.Got.String()
}
