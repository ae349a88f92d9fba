package value

import "sync"

// Set is a finite set value built with the paper's { } constructor. Element
// order is insignificant; duplicates are eliminated on insertion using deep
// equality. A Set must not be mutated after it has been shared.
type Set struct {
	elems []Value
	// index maps element hash to the positions of elements with that hash,
	// making insertion near O(1) even for large extents.
	index map[uint64][]int
}

// Kind reports KindSet.
func (*Set) Kind() Kind { return KindSet }

// NewSet builds a set from the given elements, eliminating duplicates.
func NewSet(elems ...Value) *Set {
	s := NewSetCap(len(elems))
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// NewSetCap returns an empty set with capacity for n elements.
func NewSetCap(n int) *Set {
	return &Set{
		elems: make([]Value, 0, n),
		index: make(map[uint64][]int, n),
	}
}

// EmptySet returns a new empty set.
func EmptySet() *Set { return NewSetCap(0) }

// setScratch is the transient state of the bulk set builders: the element
// hash slice and the per-hash bucket counts. Neither escapes into the
// returned Set, so pooling them drops the fixed allocation floor a small
// query pays per result-set materialization.
type setScratch struct {
	hashes []uint64
	counts map[uint64]int32
}

var setScratchPool = sync.Pool{
	New: func() any { return &setScratch{counts: make(map[uint64]int32, 64)} },
}

// hashBuf returns the scratch hash slice sized to n.
func (sc *setScratch) hashBuf(n int) []uint64 {
	if cap(sc.hashes) < n {
		sc.hashes = make([]uint64, n)
	}
	return sc.hashes[:n]
}

// release clears the bucket counts and returns the scratch to the pool.
func (sc *setScratch) release() {
	clear(sc.counts)
	setScratchPool.Put(sc)
}

// NewSetFromSlice builds a set from elems with full duplicate elimination
// (same semantics as repeated Add) but a constant number of allocations:
// element hashes are computed once into a pooled scratch slice, per-hash
// bucket sizes are counted up front, and every index bucket is carved out of
// one shared arena instead of growing through per-bucket appends. The batch
// executor uses it to materialize result sets without Add's per-element
// allocation cost; elems is not retained.
func NewSetFromSlice(elems []Value) *Set {
	n := len(elems)
	if n == 0 {
		return EmptySet()
	}
	sc := setScratchPool.Get().(*setScratch)
	hashes := sc.hashBuf(n)
	for i, e := range elems {
		h := Hash(e)
		hashes[i] = h
		sc.counts[h]++
	}
	s := newSetHashed(elems, hashes, sc.counts)
	sc.release()
	return s
}

// NewSetFromSliceHashed is NewSetFromSlice for callers that already hold
// each element's Hash — the parallel batch operators compute hashes inside
// their workers so the serial set build no longer pays the deep-hash pass.
// hashes[i] must equal Hash(elems[i]); neither slice is retained.
func NewSetFromSliceHashed(elems []Value, hashes []uint64) *Set {
	n := len(elems)
	if n == 0 {
		return EmptySet()
	}
	sc := setScratchPool.Get().(*setScratch)
	for _, h := range hashes[:n] {
		sc.counts[h]++
	}
	s := newSetHashed(elems, hashes, sc.counts)
	sc.release()
	return s
}

// newSetHashed is the shared core of the bulk builders: counts must hold the
// number of occurrences of every hash in hashes[:len(elems)].
func newSetHashed(elems []Value, hashes []uint64, counts map[uint64]int32) *Set {
	n := len(elems)
	s := &Set{elems: make([]Value, 0, n), index: make(map[uint64][]int, n)}
	arena := make([]int, n)
	off := 0
next:
	for i, e := range elems {
		h := hashes[i]
		bucket, seen := s.index[h]
		for _, j := range bucket {
			if Equal(s.elems[j], e) {
				continue next
			}
		}
		if !seen {
			// First element with this hash: reserve capacity for every
			// candidate that hashes here (duplicates overcount harmlessly),
			// so the appends below never leave the arena.
			c := int(counts[h])
			bucket = arena[off : off : off+c]
			off += c
		}
		s.index[h] = append(bucket, len(s.elems))
		s.elems = append(s.elems, e)
	}
	return s
}

// Add inserts v unless an equal element is already present. It reports
// whether the set grew. Add must only be called while the set is being
// built, before it is shared.
func (s *Set) Add(v Value) bool {
	h := Hash(v)
	if s.index == nil {
		s.index = make(map[uint64][]int)
	}
	for _, i := range s.index[h] {
		if Equal(s.elems[i], v) {
			return false
		}
	}
	s.index[h] = append(s.index[h], len(s.elems))
	s.elems = append(s.elems, v)
	return true
}

// Clone returns an independent copy of the set sharing only the (immutable)
// element values. Backing arrays are allocated exactly, so growing the clone
// never writes into storage shared with the original — the original may keep
// being read concurrently while the clone is extended. This is what the
// storage layer's copy-on-write extent materialization builds new versions
// from without rehashing every element.
func (s *Set) Clone() *Set {
	c := &Set{elems: make([]Value, len(s.elems))}
	copy(c.elems, s.elems)
	if s.index != nil {
		c.index = make(map[uint64][]int, len(s.index))
		for h, idx := range s.index {
			cp := make([]int, len(idx))
			copy(cp, idx)
			c.index[h] = cp
		}
	}
	return c
}

// AddAll inserts every element of t into s.
func (s *Set) AddAll(t *Set) {
	for _, e := range t.elems {
		s.Add(e)
	}
}

// Len reports the cardinality of the set.
func (s *Set) Len() int { return len(s.elems) }

// Elems returns the elements in insertion order. The slice is shared; callers
// must not modify it.
func (s *Set) Elems() []Value { return s.elems }

// Contains reports whether an element equal to v is in the set.
func (s *Set) Contains(v Value) bool {
	h := Hash(v)
	for _, i := range s.index[h] {
		if Equal(s.elems[i], v) {
			return true
		}
	}
	return false
}

// SubsetOf reports s ⊆ t.
func (s *Set) SubsetOf(t *Set) bool {
	if s.Len() > t.Len() {
		return false
	}
	for _, e := range s.elems {
		if !t.Contains(e) {
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
	for _, e := range small.elems {
		if big.Contains(e) {
			r.Add(e)
		}
	}
	return r
}

// Diff returns s − t as a fresh set.
func (s *Set) Diff(t *Set) *Set {
	r := NewSetCap(s.Len())
	for _, e := range s.elems {
		if !t.Contains(e) {
			r.Add(e)
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
	c.sort(out)
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
