package value

import (
	"cmp"
	"slices"
)

// Sort puts vs into canonical order — ascending under Compare — in place.
// It is the one sort the engine's values go through: set rendering, ordered
// index builds and ANALYZE's histograms.
func Sort(vs []Value) {
	var c canon
	c.sort(vs, nil)
}

// SortRuns is Sort that also appends to dst the end of every run of
// Compare-equal values in the sorted vs and returns it: run k is
// vs[ends[k-1]:ends[k]], with ends[-1] = 0, and the last end is len(vs).
// Runs are found by typed equality — on the keys a keyed sort extracted,
// else on the concrete type where every value has one kind.
func SortRuns(dst []int, vs []Value) []int {
	dst = slices.Grow(dst, len(vs))
	var c canon
	c.sort(vs, &dst)
	return dst
}

// ExactKind reports whether two values of kind k that Compare equal are
// Equal and Hash alike: every atomic kind but Float, whose NaN is not Equal
// to itself and whose ±0 hash apart.
func ExactKind(k Kind) bool {
	switch k {
	case KindNull, KindBool, KindInt, KindString, KindDate, KindOID:
		return true
	}
	return false
}

// sort puts vs into canonical order in place and, when ends is not nil,
// appends the end of each run of equal values to it. The common shapes skip
// the generic comparison: atoms of one kind (oids, names, prices) are
// compared on the concrete type, and tuples of one layout (the rows of a
// result, the elements of a reference set) share one attribute permutation
// resolved up front. A long slice of such values whose leading atoms are
// int-backed is radix-sorted on those atoms extracted once as keys beside
// the values (sortKeyed), so most of the sort never dereferences a value.
func (c *canon) sort(vs []Value, ends *[]int) {
	if len(vs) < 2 {
		if ends != nil && len(vs) == 1 {
			*ends = append(*ends, 1)
		}
		return
	}
	kind, uniform := uniformKind(vs)
	tuples := uniform && kind == KindTuple && sameLayout(vs)
	if len(vs) >= keyedSortMin && (tuples || uniform && intBacked(kind)) && c.sortKeyed(vs, kind, ends) {
		return
	}
	same := func(a, b Value) bool { return c.compare(a, b) == 0 }
	switch {
	case tuples:
		order := vs[0].(*Tuple).order
		aligned := func(a, b Value) int { return c.compareAligned(a.(*Tuple), b.(*Tuple), order) }
		slices.SortFunc(vs, aligned)
		same = func(a, b Value) bool { return aligned(a, b) == 0 }
	case uniform && kind == KindInt:
		sortAtoms[Int](vs)
	case uniform && kind == KindFloat:
		sortAtoms[Float](vs)
	case uniform && kind == KindString:
		sortAtoms[String](vs)
	case uniform && kind == KindDate:
		sortAtoms[Date](vs)
	case uniform && kind == KindOID:
		sortAtoms[OID](vs)
	default:
		slices.SortFunc(vs, c.compare)
	}
	if ends == nil {
		return
	}
	if uniform && ExactKind(kind) {
		same = func(a, b Value) bool { return a == b }
	}
	for i := 1; i < len(vs); i++ {
		if !same(vs[i-1], vs[i]) {
			*ends = append(*ends, i)
		}
	}
	*ends = append(*ends, len(vs))
}

// keyedSortMin is the length from which sort extracts keys: below it the
// key arrays' allocations cost about what the saved comparisons do, and a
// set printed as a result (a few hundred rows) is sorted as before.
const keyedSortMin = 1024

// sortKeyed sorts vs — int-backed atoms of kind, or tuples of one layout —
// on keys extracted once per value, and reports false, leaving vs alone,
// when the tuples have no key: their first attribute in canonical order is
// not of one int-backed kind in every row. A tuple's key is that attribute,
// and the next one too when it is int-backed in every row; tuples tied on
// the key fall back to the aligned comparison of the attributes after it.
// Strings get no key: a keyed string sort measured slower than sortAtoms at
// every length.
func (c *canon) sortKeyed(vs []Value, kind Kind, ends *[]int) bool {
	atom := func(v Value, _ int) Value { return v }
	keys := 1
	var tie func(a, b Value) int
	if kind == KindTuple {
		order := vs[0].(*Tuple).order
		keys = keySlots(vs, order)
		if rest := order[keys:]; len(rest) > 0 {
			tie = func(a, b Value) int { return c.compareAligned(a.(*Tuple), b.(*Tuple), rest) }
		}
		atom = func(v Value, i int) Value { return v.(*Tuple).vals[order[i]] }
	}
	if keys == 0 {
		return false
	}
	ks := make([]keyed, len(vs))
	for i, v := range vs {
		ks[i] = keyed{a: intKey(atom(v, 0)), i: int32(i)}
		if keys > 1 {
			ks[i].b = intKey(atom(v, 1))
		}
	}
	radixSort(ks)
	for i := 0; i < len(ks); {
		j := i + 1
		for j < len(ks) && ks[j].a == ks[i].a && ks[j].b == ks[i].b {
			j++
		}
		if group := ks[i:j]; tie != nil && len(group) > 1 {
			slices.SortFunc(group, func(x, y keyed) int { return tie(vs[x.i], vs[y.i]) })
			for g := 1; ends != nil && g < len(group); g++ {
				if tie(vs[group[g-1].i], vs[group[g].i]) != 0 {
					*ends = append(*ends, i+g)
				}
			}
		}
		if ends != nil {
			*ends = append(*ends, j)
		}
		i = j
	}
	in := slices.Clone(vs)
	for i := range ks {
		vs[i] = in[ks[i].i]
	}
	return true
}

// keyed is one element of a keyed sort: its key — one or two int-backed
// atoms, a then b, each mapped onto unsigned order by intKey — and the
// position of the value it came from. Holding the position rather than the
// value keeps the key array free of pointers, so the sort moves it without
// write barriers.
type keyed struct {
	a, b uint64
	i    int32
}

// intKey maps an int-backed atom onto a uint64 of the same order within its
// kind: a signed one with its sign bit flipped.
func intKey(v Value) uint64 {
	switch a := v.(type) {
	case Int:
		return uint64(a) ^ 1<<63
	case Date:
		return uint64(int64(a)) ^ 1<<63
	}
	return uint64(v.(OID))
}

// radixSort sorts ks by key, least significant byte first (b's bytes, then
// a's), skipping every byte position at which all keys agree.
func radixSort(ks []keyed) {
	var or, and keyed
	and.a, and.b = ^uint64(0), ^uint64(0)
	for _, k := range ks {
		or.a, or.b = or.a|k.a, or.b|k.b
		and.a, and.b = and.a&k.a, and.b&k.b
	}
	src, dst := ks, []keyed(nil)
	for d := range 16 {
		shift, word := 8*(d%8), func(k *keyed) uint64 { return k.b }
		if d >= 8 {
			word = func(k *keyed) uint64 { return k.a }
		}
		if byte((word(&or)^word(&and))>>shift) == 0 {
			continue
		}
		if dst == nil {
			dst = make([]keyed, len(ks))
		}
		var count [256]int
		for i := range src {
			count[byte(word(&src[i])>>shift)]++
		}
		for x, sum := 0, 0; x < 256; x++ {
			count[x], sum = sum, sum+count[x]
		}
		for i := range src {
			x := byte(word(&src[i]) >> shift)
			dst[count[x]] = src[i]
			count[x]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ks[0] {
		copy(ks, src)
	}
}

// intBacked reports whether atoms of kind k map onto a sort key.
func intBacked(k Kind) bool {
	return k == KindInt || k == KindDate || k == KindOID
}

// keySlots returns how many leading attributes, in canonical order, the
// tuples vs are keyed on: up to two, each of one int-backed kind in every
// tuple.
func keySlots(vs []Value, order []int) int {
	n := 0
	for _, slot := range order[:min(2, len(order))] {
		kind := vs[0].(*Tuple).vals[slot].Kind()
		if !intBacked(kind) {
			break
		}
		for _, v := range vs[1:] {
			if v.(*Tuple).vals[slot].Kind() != kind {
				return n
			}
		}
		n++
	}
	return n
}

// uniformKind reports the kind every element of vs has, if there is one.
func uniformKind(vs []Value) (Kind, bool) {
	kind := vs[0].Kind()
	for _, v := range vs[1:] {
		if v.Kind() != kind {
			return 0, false
		}
	}
	return kind, true
}

// sameLayout reports whether the tuples vs all have one shape.
func sameLayout(vs []Value) bool {
	shape := vs[0].(*Tuple).Shape
	for _, v := range vs[1:] {
		if v.(*Tuple).Shape != shape {
			return false
		}
	}
	return true
}

func sortAtoms[T interface {
	Value
	cmp.Ordered
}](vs []Value) {
	slices.SortFunc(vs, func(a, b Value) int { return cmp.Compare(a.(T), b.(T)) })
}
