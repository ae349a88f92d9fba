package value

import (
	"math"
)

// Equal reports deep equality of two values. Tuples are compared as
// name→value maps; sets by mutual containment. Values of different kinds are
// never equal (the model is strongly typed, so mixed-kind comparisons only
// arise for Null, which equals only itself).
func Equal(a, b Value) bool {
	switch av := a.(type) {
	case Null:
		_, ok := b.(Null)
		return ok
	case Bool:
		bv, ok := b.(Bool)
		return ok && av == bv
	case Int:
		bv, ok := b.(Int)
		return ok && av == bv
	case Float:
		bv, ok := b.(Float)
		return ok && av == bv
	case String:
		bv, ok := b.(String)
		return ok && av == bv
	case Date:
		bv, ok := b.(Date)
		return ok && av == bv
	case OID:
		bv, ok := b.(OID)
		return ok && av == bv
	case *Tuple:
		bt, ok := b.(*Tuple)
		if !ok {
			return false
		}
		if av == bt {
			return true // stored rows are shared by pointer
		}
		if av.Shape == bt.Shape {
			// One layout: slot i holds the same attribute on both sides.
			for i, v := range av.vals {
				if !Equal(v, bt.vals[i]) {
					return false
				}
			}
			return true
		}
		if av.Len() != bt.Len() {
			return false
		}
		for i, n := range av.names {
			bv, ok := bt.Get(n)
			if !ok || !Equal(av.vals[i], bv) {
				return false
			}
		}
		return true
	case *Set:
		bs, ok := b.(*Set)
		return ok && (av == bs || av.Len() == bs.Len() && av.SubsetOf(bs))
	}
	panic("value.Equal: unknown kind")
}

// Compare imposes a deterministic total order on all values: first by kind,
// then by the natural order within the kind. Floats order as cmp.Compare
// orders them: NaN before every other float and equal to every NaN, -0 equal
// to +0. Tuples compare by sorted attribute name then value; sets compare by
// cardinality then by their canonically sorted element sequences. The order
// is used for canonical printing, sorting and ordered indexes; it has no
// semantic role in the algebra (the ordered comparisons <, ≤, >, ≥ on two
// floats are IEEE's, under which NaN is unordered).
func Compare(a, b Value) int {
	var c canon
	return c.compare(a, b)
}

// IsNaN reports whether v is a float NaN, which no ordered comparison
// admits: under IEEE order, the one the algebra's <, ≤, >, ≥ use, every
// comparison with a NaN is false.
func IsNaN(v Value) bool {
	f, ok := v.(Float)
	return ok && f != f
}

// Hash returns a 64-bit hash consistent with Equal: equal values hash
// equally. Tuple and set hashes combine member hashes commutatively so that
// attribute order and element order do not matter. A tuple computes its hash
// once and keeps it (see Tuple); a set sums the element hashes it stores.
func Hash(v Value) uint64 {
	switch av := v.(type) {
	case Null:
		return 0x9e3779b97f4a7c15
	case Bool:
		return hashBool(bool(av))
	case Int:
		return hashScalar(byte(KindInt), uint64(av))
	case Float:
		return hashScalar(byte(KindFloat), math.Float64bits(float64(av)))
	case String:
		return fnvString(fnvByte(fnvOffset64, byte(KindString)), string(av))
	case Date:
		return hashScalar(byte(KindDate), uint64(uint32(av)))
	case OID:
		return hashScalar(byte(KindOID), uint64(av))
	case *Tuple:
		if h := av.hash.Load(); h != 0 {
			return h
		}
		var sum uint64
		for i, fieldHash := range av.hashes {
			sum += fieldHash ^ Hash(av.vals[i])
		}
		sum ^= 0xa5a5a5a5a5a5a5a5
		av.hash.Store(sum)
		return sum
	case *Set:
		var sum uint64
		for _, h := range av.idx.hashes {
			sum += h
		}
		return sum ^ 0x5a5a5a5a5a5a5a5a
	}
	panic("value.Hash: unknown kind")
}

func hashBool(b bool) uint64 {
	if b {
		return 0xff51afd7ed558ccd
	}
	return 0xc4ceb9fe1a85ec53
}

// FNV-1a, hand-rolled so hashing never allocates: hash/fnv's New64a boxes
// the state behind hash.Hash64 and forces []byte conversions of strings.
// The byte-for-byte fold order below reproduces the library exactly, so
// hash values are unchanged (sets, hash joins and the storage layer's
// materialization cache all key on them).
const (
	fnvOffset64 uint64 = 0xcbf29ce484222325
	fnvPrime64  uint64 = 0x100000001b3
)

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// hashScalar folds the kind byte then the value bits little-endian, matching
// the former binary.LittleEndian.PutUint64 buffer layout.
func hashScalar(kind byte, bits uint64) uint64 {
	h := fnvByte(fnvOffset64, kind)
	for i := 0; i < 64; i += 8 {
		h = fnvByte(h, byte(bits>>i))
	}
	return h
}
