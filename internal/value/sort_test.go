package value

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sortCases generates the slices TestSortIsCanonical sorts: atoms of every
// kind with the awkward members of each (negative ints, oids at and above
// 2⁶³, ±0, ±Inf, NaN, strings that share prefixes), mixed kinds, and tuples
// of one layout whose leading attributes tie often, of every atomic kind.
func sortCases(r *rand.Rand, n int) map[string][]Value {
	atoms := map[string]func() Value{
		"int": func() Value {
			return Int([]int64{math.MinInt64, -1 << 40, -7, -1, 0, 1, 5, 1 << 40, math.MaxInt64}[r.Intn(9)] + int64(r.Intn(3)))
		},
		"float": func() Value {
			return Float([]float64{math.NaN(), math.Inf(-1), -2.5, math.Copysign(0, -1), 0, 1e-300, 2.5, math.Inf(1)}[r.Intn(8)])
		},
		"string": func() Value {
			return String([]string{"", "a", "ab", "abc", "abd", "b", "part-1", "part-10", "part-9", "\xff"}[r.Intn(10)])
		},
		"date": func() Value { return Date(int32(r.Intn(40) - 20)) },
		"oid": func() Value {
			return OID([]uint64{0, 1, 2, 1 << 40, 1<<63 - 1, 1 << 63, 1<<63 + 1, math.MaxUint64}[r.Intn(8)])
		},
	}
	out := map[string][]Value{}
	for name, gen := range atoms {
		vs := make([]Value, n)
		for i := range vs {
			vs[i] = gen()
		}
		out[name] = vs
	}
	mixed := make([]Value, n)
	for i := range mixed {
		switch r.Intn(4) {
		case 0:
			mixed[i] = atoms["int"]()
		case 1:
			mixed[i] = atoms["oid"]()
		case 2:
			mixed[i] = Null{}
		default:
			mixed[i] = atoms["string"]()
		}
	}
	out["mixed"] = mixed
	// Leading attribute "a" (first in name order), ties broken by "b" and
	// "c"; the keyed sort keys on "a" alone, or on "a" and "b" when both are
	// int-backed.
	for _, lead := range []string{"int", "string", "date", "oid", "float"} {
		for _, second := range []string{"int", "string"} {
			vs := make([]Value, n)
			for i := range vs {
				vs[i] = NewTuple("c", Int(int64(r.Intn(2))), "b", atoms[second](), "a", atoms[lead]())
			}
			out["tuple/"+lead+","+second] = vs
		}
	}
	// One attribute whose values mix kinds: no key, the aligned comparison.
	mixedLead := make([]Value, n)
	for i := range mixedLead {
		mixedLead[i] = NewTuple("a", mixed[i], "b", Int(int64(r.Intn(3))))
	}
	out["tuple/mixed"] = mixedLead
	return out
}

// identity names a value for the permutation check: a tuple by its address,
// an atom by its kind and text (which tells -0 from +0 and keeps NaNs).
func identity(v Value) string {
	if t, ok := v.(*Tuple); ok {
		return fmt.Sprintf("%p", t)
	}
	return fmt.Sprintf("%d:%s", v.Kind(), v)
}

// TestSortIsCanonical: Sort and SortRuns return a permutation of their input
// in ascending Compare order, and SortRuns' ends are exactly the positions
// where Compare tells neighbours apart — below and above the length at
// which the sort extracts keys.
func TestSortIsCanonical(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	for _, n := range []int{0, 1, 2, 17, keyedSortMin - 1, keyedSortMin, 3000} {
		for name, in := range sortCases(r, n) {
			for _, runs := range []bool{false, true} {
				got := slices.Clone(in)
				var ends []int
				if runs {
					ends = SortRuns(nil, got)
				} else {
					Sort(got)
				}
				count := map[string]int{}
				for _, v := range in {
					count[identity(v)]++
				}
				for _, v := range got {
					count[identity(v)]--
				}
				for id, c := range count {
					if c != 0 {
						t.Fatalf("%s/%d: %s appears %d times more in the input than in the output", name, n, id, c)
					}
				}
				var want []int
				for i := 1; i < len(got); i++ {
					switch c := Compare(got[i-1], got[i]); {
					case c > 0:
						t.Fatalf("%s/%d: %s before %s", name, n, got[i-1], got[i])
					case c < 0:
						want = append(want, i)
					}
				}
				if len(got) > 0 {
					want = append(want, len(got))
				}
				if runs && !slices.Equal(ends, want) {
					t.Fatalf("%s/%d: run ends %v, want %v", name, n, ends, want)
				}
			}
		}
	}
}

// TestNaNHasOnePlace: Compare puts NaN before every other float, so a set
// holding one prints one text whatever order its elements arrived in.
func TestNaNHasOnePlace(t *testing.T) {
	nan := Float(math.NaN())
	a := NewSet(Float(3), nan, Float(0.5), Float(1), Float(2))
	b := NewSet(Float(0.5), Float(2), Float(1), nan, Float(3))
	const want = "{NaN, 0.5, 1, 2, 3}"
	if a.String() != want || b.String() != want {
		t.Fatalf("one set printed as %s and %s, want %s", a, b, want)
	}
	for _, x := range []Value{Float(math.Inf(-1)), Float(-1), Float(0)} {
		if Compare(nan, x) >= 0 || Compare(x, nan) <= 0 {
			t.Errorf("Compare(NaN, %s) = %d, want NaN first", x, Compare(nan, x))
		}
	}
	if Compare(nan, Float(math.NaN())) != 0 {
		t.Error("two NaNs compare apart")
	}
}
