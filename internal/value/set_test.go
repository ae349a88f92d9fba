package value

import (
	"fmt"
	"math/rand"
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
