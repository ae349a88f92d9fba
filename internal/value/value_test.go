package value

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAtomEquality(t *testing.T) {
	cases := []struct {
		a, b Value
		eq   bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Int(1), Float(1), false}, // strong typing: no cross-kind equality
		{String("red"), String("red"), true},
		{String("red"), String("blue"), false},
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{Date(940101), Date(940101), true},
		{Date(940101), Date(940102), false},
		{OID(7), OID(7), true},
		{OID(7), OID(8), false},
		{Null{}, Null{}, true},
		{Null{}, Int(0), false},
		{Float(2.5), Float(2.5), true},
	}
	for _, c := range cases {
		if got := Equal(c.a, c.b); got != c.eq {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.a, c.b, got, c.eq)
		}
		if c.eq && Hash(c.a) != Hash(c.b) {
			t.Errorf("Hash(%v) != Hash(%v) for equal values", c.a, c.b)
		}
		if c.eq != (Compare(c.a, c.b) == 0) {
			t.Errorf("Compare(%v, %v) inconsistent with Equal", c.a, c.b)
		}
	}
}

func TestTupleFieldOrderInsensitive(t *testing.T) {
	a := NewTuple("a", Int(1), "b", String("x"))
	b := NewTuple("b", String("x"), "a", Int(1))
	if !Equal(a, b) {
		t.Fatalf("tuples with same fields in different order must be equal: %v vs %v", a, b)
	}
	if Hash(a) != Hash(b) {
		t.Fatalf("hashes of equal tuples differ")
	}
	if Compare(a, b) != 0 {
		t.Fatalf("compare of equal tuples nonzero")
	}
}

func TestTupleAccessors(t *testing.T) {
	tp := NewTuple("a", Int(1), "c", NewSet(Int(1), Int(2)))
	if tp.Len() != 2 {
		t.Fatalf("Len = %d", tp.Len())
	}
	if v, ok := tp.Get("a"); !ok || !Equal(v, Int(1)) {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	if _, ok := tp.Get("zzz"); ok {
		t.Fatalf("Get(zzz) should miss")
	}
	if !tp.Has("c") || tp.Has("d") {
		t.Fatalf("Has misbehaves")
	}
	name, v := tp.At(0)
	if name != "a" || !Equal(v, Int(1)) {
		t.Fatalf("At(0) = %s, %v", name, v)
	}
}

func TestTupleDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on duplicate attribute")
		}
	}()
	NewTuple("a", Int(1), "a", Int(2))
}

func TestTupleConcat(t *testing.T) {
	a := NewTuple("a", Int(1))
	b := NewTuple("b", Int(2))
	ab, err := a.Concat(b)
	if err != nil {
		t.Fatalf("Concat: %v", err)
	}
	if !Equal(ab, NewTuple("a", Int(1), "b", Int(2))) {
		t.Fatalf("Concat = %v", ab)
	}
	if _, err := ab.Concat(a); err == nil {
		t.Fatalf("expected conflict error on overlapping concat")
	}
}

func TestTupleSubscriptDropExcept(t *testing.T) {
	tp := NewTuple("a", Int(1), "b", Int(2), "c", Int(3))
	sub, err := tp.Subscript([]string{"c", "a"})
	if err != nil {
		t.Fatalf("Subscript: %v", err)
	}
	if !Equal(sub, NewTuple("a", Int(1), "c", Int(3))) {
		t.Fatalf("Subscript = %v", sub)
	}
	if _, err := tp.Subscript([]string{"zzz"}); err == nil {
		t.Fatalf("expected error for missing attribute")
	}
	if d := tp.Drop([]string{"b"}); !Equal(d, NewTuple("a", Int(1), "c", Int(3))) {
		t.Fatalf("Drop = %v", d)
	}
	// Paper semantics rule 3: update existing, keep others, extend with new.
	up := tp.Except(NewTuple("b", Int(20), "d", Int(4)))
	if !Equal(up, NewTuple("a", Int(1), "b", Int(20), "c", Int(3), "d", Int(4))) {
		t.Fatalf("Except = %v", up)
	}
	// Except must not mutate the original.
	if !Equal(tp, NewTuple("a", Int(1), "b", Int(2), "c", Int(3))) {
		t.Fatalf("Except mutated receiver: %v", tp)
	}
}

func TestSetDeduplication(t *testing.T) {
	s := NewSet(Int(1), Int(2), Int(1), Int(2), Int(3))
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	// Deep duplicates: equal tuples collapse.
	s2 := NewSet(NewTuple("a", Int(1)), NewTuple("a", Int(1)))
	if s2.Len() != 1 {
		t.Fatalf("deep dedup failed: %v", s2)
	}
}

func TestSetAlgebra(t *testing.T) {
	a := NewSet(Int(1), Int(2), Int(3))
	b := NewSet(Int(2), Int(3), Int(4))
	if got := a.Union(b); got.Len() != 4 {
		t.Fatalf("Union = %v", got)
	}
	if got := a.Intersect(b); !Equal(got, NewSet(Int(2), Int(3))) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := a.Diff(b); !Equal(got, NewSet(Int(1))) {
		t.Fatalf("Diff = %v", got)
	}
	if !NewSet(Int(1)).SubsetOf(a) || a.SubsetOf(b) {
		t.Fatalf("SubsetOf misbehaves")
	}
	if !NewSet(Int(1)).ProperSubsetOf(a) || a.ProperSubsetOf(a) {
		t.Fatalf("ProperSubsetOf misbehaves")
	}
	if !a.Contains(Int(2)) || a.Contains(Int(9)) {
		t.Fatalf("Contains misbehaves")
	}
	// The empty set is a subset, but not a proper superset, of itself.
	e := EmptySet()
	if !e.SubsetOf(e) || e.ProperSubsetOf(e) {
		t.Fatalf("empty set inclusion misbehaves")
	}
}

func TestSetFlatten(t *testing.T) {
	s := NewSet(NewSet(Int(1), Int(2)), NewSet(Int(2), Int(3)), EmptySet())
	f, err := s.Flatten()
	if err != nil {
		t.Fatalf("Flatten: %v", err)
	}
	if !Equal(f, NewSet(Int(1), Int(2), Int(3))) {
		t.Fatalf("Flatten = %v", f)
	}
	if _, err := NewSet(Int(1)).Flatten(); err == nil {
		t.Fatalf("Flatten of non-set elements must error")
	}
}

func TestSetOrderInsensitiveEquality(t *testing.T) {
	a := NewSet(Int(1), Int(2), Int(3))
	b := NewSet(Int(3), Int(1), Int(2))
	if !Equal(a, b) || Hash(a) != Hash(b) || Compare(a, b) != 0 {
		t.Fatalf("sets differing only in insertion order must be identical")
	}
}

func TestStringRendering(t *testing.T) {
	tp := NewTuple("a", Int(2), "c", EmptySet())
	if got := tp.String(); got != "(a=2, c={})" {
		t.Errorf("tuple String = %q", got)
	}
	s := NewSet(Int(3), Int(1), Int(2))
	if got := s.String(); got != "{1, 2, 3}" {
		t.Errorf("set String = %q (must be canonically sorted)", got)
	}
	if got := Date(940101).String(); got != "d940101" {
		t.Errorf("date String = %q", got)
	}
	if got := OID(12).String(); got != "@12" {
		t.Errorf("oid String = %q", got)
	}
	if got := String("red").String(); got != `"red"` {
		t.Errorf("string String = %q", got)
	}
}

// randomValue builds a random value of bounded depth for property tests.
func randomValue(r *rand.Rand, depth int) Value {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return Int(r.Intn(10))
		case 1:
			return String([]string{"a", "b", "c"}[r.Intn(3)])
		case 2:
			return Bool(r.Intn(2) == 0)
		default:
			return OID(r.Intn(8))
		}
	}
	switch r.Intn(6) {
	case 0:
		n := r.Intn(4)
		s := EmptySet()
		for i := 0; i < n; i++ {
			s.Add(randomValue(r, depth-1))
		}
		return s
	case 1:
		t := EmptyTuple()
		for _, name := range []string{"a", "b", "c"}[:r.Intn(3)+1] {
			t, _ = t.With(name, randomValue(r, depth-1)) // the names are distinct
		}
		return t
	default:
		return randomValue(r, 0)
	}
}

func TestEqualityPropertiesQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400}
	// Reflexivity, symmetry, hash consistency, compare consistency.
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomValue(r, 3)
		b := randomValue(r, 3)
		if !Equal(a, a) || Compare(a, a) != 0 {
			return false
		}
		if Equal(a, b) != Equal(b, a) {
			return false
		}
		if Equal(a, b) && Hash(a) != Hash(b) {
			return false
		}
		if Equal(a, b) != (Compare(a, b) == 0) {
			return false
		}
		// Antisymmetry of Compare.
		return Compare(a, b) == -Compare(b, a)
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestHashHonoursEqual checks Hash's contract, that equal values hash
// equally, on the floats where Equal is not bit equality: -0 equals +0, and
// NaN equals nothing. Values are drawn from a small domain of such atoms and
// of tuples and sets over them, so that many pairs are equal.
func TestHashHonoursEqual(t *testing.T) {
	atoms := []Value{Float(0), Float(math.Copysign(0, -1)), Float(math.Inf(1)),
		Float(math.Inf(-1)), Float(math.NaN()), Float(1.5), Int(0), Null{}}
	var gen func(r *rand.Rand, depth int) Value
	gen = func(r *rand.Rand, depth int) Value {
		switch r.Intn(3) {
		case 1:
			if depth > 0 {
				return NewTuple("a", gen(r, depth-1), "b", gen(r, depth-1))
			}
		case 2:
			if depth > 0 {
				s := EmptySet()
				for n := r.Intn(4); n > 0; n-- {
					s.Add(gen(r, depth-1))
				}
				return s
			}
		}
		return atoms[r.Intn(len(atoms))]
	}
	r := rand.New(rand.NewSource(94))
	equal := 0
	for i := 0; i < 20000; i++ {
		a, b := gen(r, 2), gen(r, 2)
		if Equal(a, b) {
			equal++
			if Hash(a) != Hash(b) {
				t.Fatalf("%v = %v, but their hashes %#x and %#x differ", a, b, Hash(a), Hash(b))
			}
		}
	}
	if equal < 200 {
		t.Fatalf("only %d of the pairs were equal", equal)
	}
	zeros := NewSet(Float(0), Float(math.Copysign(0, -1)))
	if zeros.Len() != 1 || !NewSet(Float(0)).Contains(Float(math.Copysign(0, -1))) {
		t.Errorf("a set holds -0 beside its equal +0: %v", zeros)
	}
}

func TestSetAlgebraPropertiesQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() *Set {
			s := EmptySet()
			for i := 0; i < r.Intn(8); i++ {
				s.Add(randomValue(r, 1))
			}
			return s
		}
		a, b := mk(), mk()
		u, i, d := a.Union(b), a.Intersect(b), a.Diff(b)
		// |A∪B| = |A| + |B| - |A∩B|
		if u.Len() != a.Len()+b.Len()-i.Len() {
			return false
		}
		// A−B ⊆ A, A∩B ⊆ A, A ⊆ A∪B
		if !d.SubsetOf(a) || !i.SubsetOf(a) || !a.SubsetOf(u) {
			return false
		}
		// (A−B) ∪ (A∩B) = A
		if !Equal(d.Union(i), a) {
			return false
		}
		// Union commutes.
		return Equal(u, b.Union(a))
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestTruth(t *testing.T) {
	if !Truth(Bool(true)) || Truth(Bool(false)) || Truth(Int(1)) || Truth(Null{}) {
		t.Fatalf("Truth misbehaves")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	vals := []Value{
		Int(5), Float(2.5), String("red"), Bool(true), Date(940101), OID(12), Null{},
		NewTuple("a", Int(1), "c", NewSet(Int(1), Int(2))),
		NewSet(NewTuple("pid", OID(3)), NewTuple("pid", OID(4))),
		EmptySet(),
		EmptyTuple(),
		NewSet(NewSet(Int(1)), EmptySet()), // set of sets
	}
	for _, v := range vals {
		data, err := EncodeJSON(v)
		if err != nil {
			t.Fatalf("encode %v: %v", v, err)
		}
		back, err := DecodeJSON(data)
		if err != nil {
			t.Fatalf("decode %s: %v", data, err)
		}
		if !Equal(v, back) {
			t.Errorf("round trip changed %v into %v", v, back)
		}
	}
}

func TestJSONRoundTripQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomValue(r, 3)
		data, err := EncodeJSON(v)
		if err != nil {
			return false
		}
		back, err := DecodeJSON(data)
		if err != nil {
			return false
		}
		return Equal(v, back)
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestJSONDecodeErrors(t *testing.T) {
	for name, src := range map[string]string{
		"garbage":   `zzz`,
		"two tags":  `{"int":1,"str":"x"}`,
		"bad tag":   `{"frob":1}`,
		"bad tuple": `{"tuple":[["a"]]}`,
		"dup field": `{"tuple":[["a",{"int":1}],["a",{"int":2}]]}`,
		"bad int":   `{"int":"x"}`,
		"bad set":   `{"set":{"a":1}}`,
	} {
		if _, err := DecodeJSON([]byte(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestJSONCanonicalSets(t *testing.T) {
	// Equal sets built in different orders encode identically.
	a := NewSet(Int(1), Int(2), Int(3))
	b := NewSet(Int(3), Int(1), Int(2))
	ea, _ := EncodeJSON(a)
	eb, _ := EncodeJSON(b)
	if string(ea) != string(eb) {
		t.Errorf("set encodings differ:\n %s\n %s", ea, eb)
	}
}

func TestSetCloneIndependence(t *testing.T) {
	orig := NewSet(Int(1), Int(2), Int(3))
	c := orig.Clone()
	if c == orig || c.Len() != 3 {
		t.Fatalf("clone = %v", c)
	}
	// Growing the clone must never write into storage shared with the
	// original: concurrent readers of the original rely on this.
	for i := 4; i <= 64; i++ {
		c.Add(Int(int64(i)))
	}
	if orig.Len() != 3 {
		t.Fatalf("original grew to %d elements", orig.Len())
	}
	for _, v := range []Value{Int(1), Int(2), Int(3)} {
		if !orig.Contains(v) || !c.Contains(v) {
			t.Fatalf("element %v lost", v)
		}
	}
	if orig.Contains(Int(10)) {
		t.Fatalf("original sees the clone's additions")
	}
	if !c.Contains(Int(64)) {
		t.Fatalf("clone lost its own addition")
	}
}
