package value

import (
	"cmp"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The reference renderer and order: the implementation the canonical encoder
// replaced, kept verbatim as the oracle. It sorts with a comparison that
// re-sorts attribute lists and nested sets on every call and renders every
// element into a string of its own — slow, and obviously right.

func refSortedIdx(t *Tuple) []int {
	idx := make([]int, len(t.names))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return t.names[idx[a]] < t.names[idx[b]] })
	return idx
}

func refSorted(s *Set) []Value {
	out := append(make([]Value, 0, len(s.elems)), s.elems...)
	sort.Slice(out, func(i, j int) bool { return refCompare(out[i], out[j]) < 0 })
	return out
}

func refCompare(a, b Value) int {
	if a.Kind() != b.Kind() {
		return int(a.Kind()) - int(b.Kind())
	}
	switch av := a.(type) {
	case Null:
		return 0
	case Bool:
		bv := b.(Bool)
		switch {
		case av == bv:
			return 0
		case bool(bv):
			return -1
		default:
			return 1
		}
	case Int:
		return cmp.Compare(av, b.(Int))
	case Float:
		return cmp.Compare(av, b.(Float))
	case String:
		return cmp.Compare(av, b.(String))
	case Date:
		return cmp.Compare(av, b.(Date))
	case OID:
		return cmp.Compare(av, b.(OID))
	case *Tuple:
		bt := b.(*Tuple)
		ai, bi := refSortedIdx(av), refSortedIdx(bt)
		for k := 0; k < len(ai) && k < len(bi); k++ {
			an, bn := av.names[ai[k]], bt.names[bi[k]]
			if an != bn {
				if an < bn {
					return -1
				}
				return 1
			}
			if c := refCompare(av.vals[ai[k]], bt.vals[bi[k]]); c != 0 {
				return c
			}
		}
		return av.Len() - bt.Len()
	case *Set:
		bs := b.(*Set)
		if av.Len() != bs.Len() {
			return av.Len() - bs.Len()
		}
		as, bss := refSorted(av), refSorted(bs)
		for i := range as {
			if c := refCompare(as[i], bss[i]); c != 0 {
				return c
			}
		}
		return 0
	}
	panic("refCompare: unknown kind")
}

func refString(v Value) string {
	switch vv := v.(type) {
	case Null:
		return "null"
	case Bool:
		if vv {
			return "true"
		}
		return "false"
	case Int:
		return strconv.FormatInt(int64(vv), 10)
	case Float:
		return strconv.FormatFloat(float64(vv), 'g', -1, 64)
	case String:
		return strconv.Quote(string(vv))
	case Date:
		return fmt.Sprintf("d%06d", int32(vv))
	case OID:
		return "@" + strconv.FormatUint(uint64(vv), 10)
	case *Tuple:
		var b strings.Builder
		b.WriteByte('(')
		for i, n := range vv.names {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(n)
			b.WriteByte('=')
			b.WriteString(refString(vv.vals[i]))
		}
		b.WriteByte(')')
		return b.String()
	case *Set:
		parts := make([]string, vv.Len())
		for i, e := range refSorted(vv) {
			parts[i] = refString(e)
		}
		return "{" + strings.Join(parts, ", ") + "}"
	}
	panic("refString: unknown kind")
}

// genValue draws nested values from small domains, so that equal values,
// equal layouts in different declaration orders, and ties on leading
// attributes all occur: atoms of every kind, tuples over permuted subsets of
// a few names, sets of sets, empty sets and mixed-kind sets.
func genValue(r *rand.Rand, depth int) Value {
	if depth <= 0 || r.Intn(3) == 0 {
		return genAtom(r)
	}
	switch r.Intn(4) {
	case 0: // tuple, declaration order shuffled
		names := []string{"a", "b", "ab", "c", "é", "parts"}
		r.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		t := EmptyTuple()
		for _, n := range names[:r.Intn(4)] {
			t, _ = t.With(n, genValue(r, depth-1)) // the names are distinct
		}
		return t
	case 1: // set of one atom kind: the typed sort
		s, atom := EmptySet(), genAtom(r)
		for i, n := 0, r.Intn(12); i < n; i++ {
			for {
				if e := genAtom(r); e.Kind() == atom.Kind() {
					s.Add(e)
					break
				}
			}
		}
		return s
	case 2: // rows: tuples of one layout, ties on the leading attribute
		s := EmptySet()
		for i, n := 0, r.Intn(8); i < n; i++ {
			s.Add(NewTuple("k", Int(r.Intn(3)), "parts", genValue(r, depth-1), "b", genAtom(r)))
		}
		return s
	default: // anything goes, empty included
		s := EmptySet()
		for i, n := 0, r.Intn(5); i < n; i++ {
			s.Add(genValue(r, depth-1))
		}
		return s
	}
}

func genAtom(r *rand.Rand) Value {
	switch r.Intn(7) {
	case 0:
		return Null{}
	case 1:
		return Bool(r.Intn(2) == 0)
	case 2:
		return Int([]int64{-1 << 63, -40, -1, 0, 1, 7, 99, 100, 1<<63 - 1}[r.Intn(9)])
	case 3:
		return Float([]float64{-2.5, 1e-9, 0, 0.1, 1, 2.5, 1e21, 123456789.125}[r.Intn(8)])
	case 4:
		return String([]string{"", "a", "b", "red", "part-10", "part-9", `q"uo\te`, "tab\tnl\n", "naïve⟨⟩", "\xff\x00"}[r.Intn(10)])
	case 5:
		return Date([]int32{940101, 940102, 0, 7, 99999, 1234567, -5, -123456, -1 << 31}[r.Intn(9)])
	default:
		return OID(r.Intn(6))
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

// checkSorted asserts Sorted agrees with the reference on s and on every set
// nested in it — which is also what keeps EncodeJSON's output unchanged.
func checkSorted(t *testing.T, v Value) {
	switch vv := v.(type) {
	case *Tuple:
		for _, e := range vv.vals {
			checkSorted(t, e)
		}
	case *Set:
		got, want := vv.Sorted(), refSorted(vv)
		for i := range want {
			if !Equal(got[i], want[i]) {
				t.Fatalf("Sorted()[%d] of %s = %s, reference has %s", i, refString(vv), refString(got[i]), refString(want[i]))
			}
		}
		for _, e := range vv.elems {
			checkSorted(t, e)
		}
	}
}

func TestCanonicalTextMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(94))
	for i := 0; i < 3000; i++ {
		v := genValue(r, 4)
		want := refString(v)
		if got := v.String(); got != want {
			t.Fatalf("String() = %s\nreference  %s", got, want)
		}
		if got := string(AppendText([]byte("x="), v)); got != "x="+want {
			t.Fatalf("AppendText = %s\nreference   x=%s", got, want)
		}
		checkSorted(t, v)
	}
}

func TestCompareTotalOrderMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1994))
	for i := 0; i < 3000; i++ {
		a, b, c := genValue(r, 3), genValue(r, 3), genValue(r, 3)
		ab, ba := Compare(a, b), Compare(b, a)
		if sign(ab) != sign(refCompare(a, b)) {
			t.Fatalf("Compare(%s, %s) = %d, reference %d", a, b, ab, refCompare(a, b))
		}
		if sign(ab) != -sign(ba) {
			t.Fatalf("Compare not antisymmetric on %s, %s: %d and %d", a, b, ab, ba)
		}
		if (ab == 0) != Equal(a, b) {
			t.Fatalf("Compare(%s, %s) = %d but Equal = %v", a, b, ab, Equal(a, b))
		}
		if Compare(a, a) != 0 {
			t.Fatalf("Compare(%s, itself) != 0", a)
		}
		if bc, ac := Compare(b, c), Compare(a, c); ab <= 0 && bc <= 0 && ac > 0 {
			t.Fatalf("Compare not transitive: %s <= %s <= %s but first > last", a, b, c)
		}
	}
}

// TestEncodeJSONGolden pins the tagged JSON form of a nested value: sets in
// canonical order, tuples in declaration order.
func TestEncodeJSONGolden(t *testing.T) {
	v := NewSet(
		NewTuple("b", Int(2), "a", NewSet(OID(9), OID(10), OID(1))),
		NewTuple("a", NewSet(OID(3)), "b", Int(1)),
		String("z"), Int(5), NewSet(), Date(7),
	)
	const want = `{"set":[{"int":5},{"str":"z"},{"date":7},` +
		`{"tuple":[["a",{"set":[{"oid":3}]}],["b",{"int":1}]]},` +
		`{"tuple":[["b",{"int":2}],["a",{"set":[{"oid":1},{"oid":9},{"oid":10}]}]]},` +
		`{"set":[]}]}`
	got, err := EncodeJSON(v)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("EncodeJSON = %s\nwant         %s", got, want)
	}
}

// rows builds n tuples of one layout, each with a nested set of fan
// single-attribute tuples — the shape of a result of supplier objects.
func rows(n, fan int) *Set {
	r := rand.New(rand.NewSource(5))
	s := EmptySet()
	for _, i := range r.Perm(n) {
		parts := EmptySet()
		for j := 0; j < fan; j++ {
			parts.Add(NewTuple("pid", OID(r.Intn(800))))
		}
		s.Add(NewTuple("eid", OID(i), "sname", String("supplier-"+strconv.Itoa(i)), "parts", parts))
	}
	return s
}

// TestCanonicalOrderAllocations: ordering and printing take scratch from the
// pass, not from the heap per comparison or per element.
func TestCanonicalOrderAllocations(t *testing.T) {
	flat := EmptySet()
	for i := 0; i < 400; i++ {
		flat.Add(String("supplier-" + strconv.Itoa(i)))
	}
	nested := rows(372, 8)
	// One allocation, the result string, when the encoder comes from the
	// pool. The bound leaves room for the race detector's pool, which drops
	// a quarter of what is put back: a fresh encoder grows its buffers in a
	// few doubling steps, still independent of the element count.
	const bound = 32
	if n := testing.AllocsPerRun(20, func() { _ = flat.String() }); n > bound {
		t.Errorf("printing 400 flat strings: %.0f allocations, want at most %d", n, bound)
	}
	if n := testing.AllocsPerRun(20, func() { _ = nested.String() }); n > bound {
		t.Errorf("printing 372 nested rows: %.0f allocations, want at most %d", n, bound)
	}
	a, b := nested.elems[0], nested.elems[1]
	if n := testing.AllocsPerRun(100, func() { Compare(a, b) }); n != 0 {
		t.Errorf("Compare of two same-layout tuples: %.0f allocations, want 0", n)
	}
	var x, y Value = Int(3), Int(4)
	if n := testing.AllocsPerRun(100, func() { Compare(x, y) }); n != 0 {
		t.Errorf("Compare of two atoms: %.0f allocations, want 0", n)
	}
}

// TestConcurrentPrintSharedSet prints, orders and compares one shared nested
// set from several goroutines at once. Run under -race it shows that a Set
// or Tuple fills no cache of its own while being read.
func TestConcurrentPrintSharedSet(t *testing.T) {
	shared := rows(60, 5)
	want := refString(shared)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := shared.String(); got != want {
					t.Errorf("concurrent String() diverges from the reference")
					return
				}
				if Compare(shared, shared) != 0 || len(shared.Sorted()) != shared.Len() {
					t.Errorf("concurrent Compare/Sorted on a shared set went wrong")
					return
				}
			}
		}()
	}
	wg.Wait()
}
