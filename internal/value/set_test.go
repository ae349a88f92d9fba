package value

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// oracle is the naive set the model test compares against: a slice in
// insertion order, searched with Equal.
type oracle []Value

func (o oracle) contains(v Value) bool {
	for _, e := range o {
		if Equal(e, v) {
			return true
		}
	}
	return false
}

func (o oracle) add(v Value) oracle {
	if o.contains(v) {
		return o
	}
	return append(o[:len(o):len(o)], v)
}

// build inserts the oracle's elements through the forced-hash path.
func (o oracle) build(hash func(Value) uint64) *Set {
	s := EmptySet()
	for _, e := range o {
		s.add(e, hash(e))
	}
	return s
}

// checkModel fails unless s holds exactly o's elements in o's order and
// answers membership like o over the whole domain.
func checkModel(t *testing.T, step string, s *Set, o oracle, hash func(Value) uint64, domain []Value) {
	t.Helper()
	if s.Len() != len(o) {
		t.Fatalf("%s: Len = %d, oracle has %d", step, s.Len(), len(o))
	}
	for i, e := range s.Elems() {
		if !Equal(e, o[i]) {
			t.Fatalf("%s: Elems()[%d] = %v, oracle has %v", step, i, e, o[i])
		}
	}
	for _, v := range domain {
		if got, want := s.find(v, hash(v)), o.contains(v); got != want {
			t.Fatalf("%s: find(%v) = %v, oracle says %v (len %d)", step, v, got, want, len(o))
		}
	}
}

// TestSetModel drives random Add/Contains/Clone/Union/Diff/Intersect
// sequences against the oracle. Besides the real Hash it runs with forced
// hashes — four hash values for the whole domain, and one — so that chains of
// unequal elements are walked in the linear scan, across the smallTable
// threshold, and across every growth of the table.
func TestSetModel(t *testing.T) {
	domain := make([]Value, 0, 120)
	for i := 0; i < 60; i++ {
		domain = append(domain, Int(int64(i)), NewTuple("k", Int(int64(i%7)), "s", String(fmt.Sprint(i))))
	}
	hashes := map[string]func(Value) uint64{
		"hash":      Hash,
		"colliding": func(v Value) uint64 { return Hash(v) % 4 },
		"all-equal": func(Value) uint64 { return 7 },
	}
	for name, hash := range hashes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			pick := func() Value { return domain[rng.Intn(len(domain))] }
			random := func(n int) oracle {
				var o oracle
				for i := 0; i < n; i++ {
					o = o.add(pick())
				}
				return o
			}
			for trial := 0; trial < 10; trial++ {
				s, o := EmptySet(), oracle(nil)
				for step := 0; step < 150; step++ {
					switch op := rng.Intn(10); {
					case op < 6:
						v := pick()
						if grew, want := s.add(v, hash(v)), !o.contains(v); grew != want {
							t.Fatalf("add(%v) = %v, oracle says %v", v, grew, want)
						}
						o = o.add(v)
					case op == 6:
						// The clone continues; the original must stay as it was.
						before, frozen := s, append(oracle(nil), o...)
						s = s.Clone()
						v := pick()
						s.add(v, hash(v))
						o = o.add(v)
						checkModel(t, "original after clone grew", before, frozen, hash, domain)
					case op == 7:
						other := random(rng.Intn(20))
						s = s.Union(other.build(hash))
						for _, e := range other {
							o = o.add(e)
						}
					case op == 8:
						other := random(rng.Intn(20))
						s = s.Diff(other.build(hash))
						var kept oracle
						for _, e := range o {
							if !other.contains(e) {
								kept = append(kept, e)
							}
						}
						o = kept
					default:
						other := random(rng.Intn(40))
						os := other.build(hash)
						inter := s.Intersect(os)
						for _, e := range inter.Elems() {
							if !o.contains(e) || !other.contains(e) {
								t.Fatalf("intersection holds foreign element %v", e)
							}
						}
						if !inter.SubsetOf(s) || !inter.SubsetOf(os) || inter.Len() != s.Len()-s.Diff(os).Len() {
							t.Fatalf("intersection %v of %v and %v", inter, s, os)
						}
					}
					checkModel(t, fmt.Sprintf("trial %d step %d", trial, step), s, o, hash, domain)
				}
				// A set built in another order is the same set, with the same hash.
				rng.Shuffle(len(o), func(i, j int) { o[i], o[j] = o[j], o[i] })
				if shuffled := o.build(hash); !Equal(s, shuffled) || Hash(s) != Hash(shuffled) {
					t.Fatalf("trial %d: set differs from its reordered rebuild", trial)
				}
			}
		})
	}
}

// TestSetContainsMatchesFind ties the exported probes to the forced-hash path
// the model test uses.
func TestSetContainsMatchesFind(t *testing.T) {
	s := EmptySet()
	if s.Contains(Int(1)) || s.Clone().Contains(Int(1)) {
		t.Fatal("empty set contains an element")
	}
	for i := 0; i < 100; i += 2 {
		s.Add(Int(int64(i)))
	}
	for i := 0; i < 100; i++ {
		if got := s.Contains(Int(int64(i))); got != (i%2 == 0) {
			t.Fatalf("Contains(%d) = %v", i, got)
		}
	}
}

// TestSetCloneConcurrentGrowth is the storage layer's copy-on-write
// invariant under the race detector: readers iterate and probe a published
// set while a writer clones it and grows the clone through several table
// rebuilds.
func TestSetCloneConcurrentGrowth(t *testing.T) {
	for _, n := range []int{smallTable - 1, smallTable, 100} {
		orig := EmptySet()
		for i := 0; i < n; i++ {
			orig.Add(NewTuple("k", Int(int64(i))))
		}
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for pass := 0; pass < 20; pass++ {
					for _, e := range orig.Elems() {
						if !orig.Contains(e) {
							t.Errorf("original of %d lost %v", n, e)
							return
						}
					}
					if orig.Contains(NewTuple("k", Int(int64(n)))) || orig.Len() != n || !orig.SubsetOf(orig) {
						t.Errorf("original of %d sees the clone's growth", n)
						return
					}
					_ = Hash(orig)
				}
			}()
		}
		clone := orig.Clone()
		for i := n; i < n+500; i++ {
			clone.Add(NewTuple("k", Int(int64(i))))
		}
		wg.Wait()
		if clone.Len() != n+500 || !orig.SubsetOf(clone) {
			t.Fatalf("clone of %d has %d elements", n, clone.Len())
		}
	}
}

// TestTupleHashConcurrent hashes one stored row from 8 goroutines at once:
// the memo word is the only state on a value written after construction, so
// this is the access the race detector must accept, and every caller must
// get the value the reference implementation pins.
func TestTupleHashConcurrent(t *testing.T) {
	mk := func() *Tuple {
		return NewTuple("pid", OID(7), "pname", String("bolt"), "price", Int(12),
			"made_of", NewSet(NewTuple("pid", OID(9)), NewTuple("pid", OID(11))))
	}
	stored, want := mk(), refHash(mk())
	var wg sync.WaitGroup
	got := make([]uint64, 8)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				got[g] = Hash(stored)
			}
		}(g)
	}
	wg.Wait()
	for g, h := range got {
		if h != want {
			t.Errorf("goroutine %d: Hash = %#x, reference gives %#x", g, h, want)
		}
	}
	if h := Hash(mk()); h != want {
		t.Errorf("fresh equal tuple: Hash = %#x, want %#x", h, want)
	}
	if stored.hash.Load() != want {
		t.Errorf("memo word holds %#x, want %#x", stored.hash.Load(), want)
	}
}

// TestIndexAscending pins what keeps join output order — and with it every
// golden and Explain test — where the map-of-slices build sides had it: the
// candidates of a hash are exactly the positions that carry it, lowest first.
func TestIndexAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, smallTable, smallTable + 1, 50, 3000} {
		for _, distinct := range []uint64{1, 3, 1 << 40} {
			hashes := make([]uint64, n)
			for i := range hashes {
				hashes[i] = rng.Uint64() % distinct
			}
			ix := NewIndex(hashes)
			probes := hashes
			if distinct <= 3 {
				probes = []uint64{0, 1, 2}[:distinct] // not once per position: that is n² work
			}
			for _, h := range probes {
				var got, want []int
				for i := ix.First(h); i >= 0; i = ix.Next(i) {
					got = append(got, i)
				}
				for i, hi := range hashes {
					if hi == h {
						want = append(want, i)
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("n=%d distinct=%d hash %#x: candidates %v, want %v", n, distinct, h, got, want)
				}
			}
			if i := ix.First(distinct + 1); i >= 0 {
				t.Fatalf("n=%d: absent hash has candidate %d", n, i)
			}
		}
	}
}

// TestCompactSharesNothing: a compacted set is exact-size and shares no array
// with the set it was copied from, in either direction. Extending the copy —
// by AddAll, or a Clone or Union of it — leaves the source untouched, spare
// capacity included; building on in the source, or resetting it and building
// other elements, leaves the copy untouched.
func TestCompactSharesNothing(t *testing.T) {
	more := NewSet(Int(100), Int(101), Int(102))
	for n := 0; n <= 2*smallTable; n++ {
		src := NewSetCap(3 * smallTable) // spare capacity a shared array would write into
		for i := range n {
			src.Add(Int(int64(i)))
		}
		c := src.Compact()
		if cap(c.Elems()) != n || cap(c.Hashes()) != n || !Equal(c, src) {
			t.Fatalf("Compact of %d: cap %d/%d, equal %v", n, cap(c.Elems()), cap(c.Hashes()), Equal(c, src))
		}
		if wantLinks := tableSize(n); cap(c.idx.links) != wantLinks || len(c.idx.links) != wantLinks {
			t.Fatalf("Compact of %d: links len %d cap %d, want %d", n, len(c.idx.links), cap(c.idx.links), wantLinks)
		}
		spare := func() bool {
			for _, e := range src.Elems()[n:cap(src.Elems())] {
				if e != nil {
					return false
				}
			}
			return slices.Equal(src.Hashes()[n:cap(src.Hashes())], make([]uint64, cap(src.Hashes())-n))
		}
		clone := c.Clone()
		clone.AddAll(more)
		u := c.Union(more)
		c.AddAll(more)
		if src.Len() != n || !spare() || clone.Len() != n+3 || u.Len() != n+3 || c.Len() != n+3 {
			t.Fatalf("extending the compact of %d: source has %d elements, spare capacity clean %v", n, src.Len(), spare())
		}
		frozen := src.Compact()
		src.Add(Int(-1))
		if frozen.Len() != n || frozen.Contains(Int(-1)) {
			t.Fatalf("building on after Compact of %d reached the copy", n)
		}
		src.Reset()
		for i := range n {
			src.Add(Int(int64(1000 + i)))
		}
		for i := range n {
			if !frozen.Contains(Int(int64(i))) || frozen.Contains(Int(int64(1000+i))) {
				t.Fatalf("Reset and rebuild after Compact of %d reached the copy", n)
			}
		}
	}
}

// tableSize is the length of the chain table of an exact-size set of n
// elements: none up to smallTable, else the bucket heads rehash picks for n
// (the least power of two ≥ 16 and ≥ 2n) and one link per element.
func tableSize(n int) int {
	if n <= smallTable {
		return 0
	}
	nb := 16
	for nb < 2*n {
		nb *= 2
	}
	return nb + n
}

// TestSetReset reuses one set as a scratch for groups of changing size, past
// the point where the hash table exists and back: after each Reset it must
// hold exactly the group's elements, as a set built fresh does, with arrays
// sized by that group and not by a larger one before it (a 9-member group
// follows a 10 000-member one), and its Compact must be exact-size, chain
// table included.
func TestSetReset(t *testing.T) {
	scratch := EmptySet()
	for round, n := range []int{0, 3, 40, 5, smallTable, smallTable + 1, 200, 1, 60, 10000, smallTable + 1} {
		scratch.Reset()
		var elems []Value
		for i := range 2 * n { // every element twice
			elems = append(elems, Int(int64(round*100000+i/2)))
			scratch.Add(elems[i])
		}
		if want := NewSetFromSlice(elems); scratch.Len() != n || !Equal(scratch, want) {
			t.Fatalf("round %d: %d elements after Reset, want %d", round, scratch.Len(), n)
		}
		for i := range n {
			if !scratch.Contains(Int(int64(round*100000+i))) || scratch.Contains(Int(int64((round+1)*100000+i))) {
				t.Fatalf("round %d: membership of %d wrong after Reset", round, i)
			}
		}
		if limit := max(smallTable, 2*n); cap(scratch.Elems()) > limit || cap(scratch.idx.links) > tableSize(2*limit) {
			t.Fatalf("round %d: scratch of %d has elems cap %d, links cap %d", round, n, cap(scratch.Elems()), cap(scratch.idx.links))
		}
		c := scratch.Compact()
		if !Equal(c, scratch) || cap(c.Elems()) != n || len(c.idx.links) != tableSize(n) || cap(c.idx.links) != tableSize(n) {
			t.Fatalf("round %d: Compact of %d has elems cap %d, links len %d cap %d, want %d",
				round, n, cap(c.Elems()), len(c.idx.links), cap(c.idx.links), tableSize(n))
		}
	}
}
