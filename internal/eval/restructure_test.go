package eval

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/adl"
	"repro/internal/storage"
	"repro/internal/value"
)

// TestNestUnnestPNFProperty checks the [RoKS88] result the paper leans on in
// §4: nest and unnest are each other's inverse exactly for PNF relations
// with no empty set-valued attributes. Random nested relations whose atomic
// attributes form a key and whose sets are non-empty must satisfy
// ν(μ(X)) = X; relations with empty sets must lose exactly those tuples.
func TestNestUnnestPNFProperty(t *testing.T) {
	build := func(seed int64, allowEmpty bool) (*value.Set, int) {
		rng := rand.New(rand.NewSource(seed))
		x := value.EmptySet()
		emptyCount := 0
		n := 2 + rng.Intn(6)
		for i := 0; i < n; i++ {
			inner := value.EmptySet()
			k := rng.Intn(4)
			if !allowEmpty && k == 0 {
				k = 1
			}
			for j := 0; j < k; j++ {
				inner.Add(value.NewTuple("d", value.Int(int64(rng.Intn(5))),
					"e", value.Int(int64(rng.Intn(5)))))
			}
			if inner.Len() == 0 {
				emptyCount++
			}
			// The atomic attribute a is unique: PNF key condition.
			x.Add(value.NewTuple("a", value.Int(int64(i)), "c", inner))
		}
		return x, emptyCount
	}
	roundTrip := func(x *value.Set) *value.Set {
		db := storage.NewMemDB("X", x)
		e := adl.Nu(adl.Mu("c", adl.T("X")), "c", "d", "e")
		out, err := EvalSet(e, nil, db)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		return out
	}
	cfg := &quick.Config{MaxCount: 150}
	if err := quick.Check(func(seed int64) bool {
		// PNF, no empty sets: exact inverse.
		x, _ := build(seed, false)
		if !value.Equal(roundTrip(x), x) {
			return false
		}
		// With empty sets: exactly the empty-set tuples are lost.
		y, empties := build(seed+1, true)
		got := roundTrip(y)
		return got.Len() == y.Len()-empties && got.SubsetOf(y)
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestNonPNFNestUnnestMerges demonstrates the other PNF failure mode: when
// the atomic attributes do not form a key, ν(μ(X)) merges tuples that share
// them (restructuring is lossy in both directions).
func TestNonPNFNestUnnestMerges(t *testing.T) {
	x := value.NewSet(
		value.NewTuple("a", value.Int(1), "c", value.NewSet(
			value.NewTuple("d", value.Int(1)))),
		value.NewTuple("a", value.Int(1), "c", value.NewSet(
			value.NewTuple("d", value.Int(2)))),
	)
	db := storage.NewMemDB("X", x)
	got, err := EvalSet(adl.Nu(adl.Mu("c", adl.T("X")), "c", "d"), nil, db)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("non-PNF round trip = %v, want the merged single group", got)
	}
	merged := got.Elems()[0].(*value.Tuple).MustGet("c").(*value.Set)
	if merged.Len() != 2 {
		t.Errorf("merged group = %v", merged)
	}
}
