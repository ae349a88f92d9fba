package exec

import (
	"math/bits"

	"repro/internal/adl"
	"repro/internal/value"
)

// joinTable is the one build side of every hash join — HashJoin at any
// worker count, its membership probe (HashJoin.In) and each PNHL segment:
// the build rows, indexed by their keys once before any probe and read-only
// after, so the probe shares of a parallel join all read it.
//
// It is a flat i64Table over the keys' raw bits (value.IntBits) when every key
// is an int-backed value of one kind, or a unary tuple of one shape over
// such a value (p[pid]); otherwise a value.Index over the keys' hashes. Its
// three lookups — by key value (find), by set element (offerElems) and by
// reference-column bits (findBits) — each find the build rows whose key is
// value.Equal to theirs, in build order (next).
type joinTable struct {
	rows []value.Value
	// The value.Index table: each build row's key, indexed by its hash.
	keys []value.Value
	ix   *value.Index
	// The int table, and the kind of its keys' value and, for unary tuple
	// keys, their shape (nil: the keys are the values themselves).
	ints  *i64Table
	kind  value.Kind
	shape *value.Shape
}

// newJoinTable indexes rows by key. A key that reads one attribute of the
// row is read straight off the rows where they all hold an int-backed value
// of one kind there (attrIntKeys); any other key is evaluated in up to
// workers shares (evalKeys).
func newJoinTable(ctx *Ctx, rows []value.Value, key Scalar, workers int) (joinTable, error) {
	t := joinTable{rows: rows}
	bs, shape, kind, ok := attrIntKeys(rows, key)
	if !ok {
		keys, hashes, err := evalKeys(ctx, rows, key, workers)
		if err != nil {
			return t, err
		}
		if bs, shape, kind, ok = intKeys(keys); !ok {
			t.keys, t.ix = keys, value.NewIndex(hashes)
			return t, nil
		}
	}
	t.ints, t.kind, t.shape = newI64Table(bs), kind, shape
	return t, nil
}

// find returns the first build row whose key equals key, or -1.
func (t *joinTable) find(key value.Value) int {
	if t.ints == nil {
		return t.first(key, value.Hash(key))
	}
	if t.shape != nil {
		kt, ok := key.(*value.Tuple)
		if !ok || kt.Shape != t.shape {
			return -1
		}
		key = kt.Vals()[0]
	}
	if b, ok := value.IntBits(key); ok && key.Kind() == t.kind {
		return t.ints.first(b)
	}
	return -1
}

// offerElems hands em, element after element of set, the build rows whose
// key equals the element (offer), until em asks to stop. The value.Index is
// probed with the hashes the set stores beside its elements, and the int
// table with the bits of the set's reference column where it has one: the
// column's elements all have its shape and kind, so they match the table's
// keys, or none does.
func (t *joinTable) offerElems(set *value.Set, em *joinEmit) {
	shape, kind, bits := set.Column()
	switch {
	case t.ints == nil:
		hs := set.Hashes()
		for i, el := range set.Elems() {
			if t.offer(t.first(el, hs[i]), em) {
				return
			}
		}
	case shape == nil:
		for _, el := range set.Elems() {
			if t.offer(t.find(el), em) {
				return
			}
		}
	case shape == t.shape && kind == t.kind:
		for _, b := range bits {
			if t.offer(t.ints.first(b), em) {
				return
			}
		}
	}
}

// findBits is find of the value of kind whose value.IntBits are b, the key
// a reference column holds of its element, without the value.
func (t *joinTable) findBits(kind value.Kind, b int64) int {
	if t.ints != nil {
		if t.shape != nil || kind != t.kind {
			return -1
		}
		return t.ints.first(b)
	}
	h := value.HashBits(kind, b)
	for m := t.ix.First(h); m >= 0; m = t.ix.Next(m) {
		if value.EqualBits(t.keys[m], kind, b) {
			return m
		}
	}
	return -1
}

// first returns the first row of the value.Index table whose key equals key,
// whose Hash is h, or -1.
func (t *joinTable) first(key value.Value, h uint64) int {
	for m := t.ix.First(h); m >= 0; m = t.ix.Next(m) {
		if value.Equal(t.keys[m], key) {
			return m
		}
	}
	return -1
}

// next returns the build row after i whose key equals row i's — the key a
// lookup matched at i — or -1.
func (t *joinTable) next(i int) int {
	if t.ints != nil {
		return t.ints.after(i)
	}
	for m := t.ix.Next(i); m >= 0; m = t.ix.Next(m) {
		if value.Equal(t.keys[m], t.keys[i]) {
			return m
		}
	}
	return -1
}

// offer hands em build row i, a lookup's result (-1: none), and each later
// row whose key equals its until em asks to stop; it reports whether em did.
// It inlines to the check of i, the walk a call made only on a match.
func (t *joinTable) offer(i int, em *joinEmit) (stop bool) { return i >= 0 && t.walk(i, em) }

func (t *joinTable) walk(i int, em *joinEmit) (stop bool) {
	for ; i >= 0; i = t.next(i) {
		if em.matchAt(i) {
			return true
		}
	}
	return false
}

// evalKeys computes key(row) and its value.Hash for every row, on up to
// workers goroutines (inShares): each writes its own range of the result
// slices, so none needs a lock, and the first failing row decides the error.
func evalKeys(ctx *Ctx, rows []value.Value, key Scalar, workers int) ([]value.Value, []uint64, error) {
	keys, hashes := make([]value.Value, len(rows)), make([]uint64, len(rows))
	_, err := inShares(len(rows), workers, func(lo, hi int) (struct{}, error) {
		for r := lo; r < hi; r++ {
			v, err := key.Eval(ctx, rows[r])
			if err != nil {
				return struct{}{}, err
			}
			keys[r], hashes[r] = v, value.Hash(v)
		}
		return struct{}{}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return keys, hashes, nil
}

// attrIntKeys reads a key y.a or y[a] straight off the rows when every row
// is a tuple holding an int-backed value of one kind under a: the int
// table's bits, kind and, for y[a], the unary shape ⟨a⟩ — exactly what
// intKeys finds in the evaluated keys, without evaluating one. ok=false
// sends the caller to evaluate the key, which also reproduces its errors.
func attrIntKeys(rows []value.Value, key Scalar) ([]int64, *value.Shape, value.Kind, bool) {
	var x adl.Expr
	var attr string
	unary := false
	switch e := key.Expr.(type) {
	case *adl.Field:
		x, attr = e.X, e.Name
	case *adl.Subscript:
		if len(e.Attrs) != 1 {
			return nil, nil, value.KindNull, false
		}
		x, attr, unary = e.X, e.Attrs[0], true
	}
	if v, ok := x.(*adl.Var); !ok || len(key.Vars) != 1 || v.Name != key.Vars[0] || len(rows) == 0 {
		return nil, nil, value.KindNull, false
	}
	var kind value.Kind
	bs := make([]int64, len(rows))
	for i, r := range rows {
		tup, ok := r.(*value.Tuple)
		if !ok {
			return nil, nil, value.KindNull, false
		}
		ev, ok := tup.Get(attr)
		if !ok {
			return nil, nil, value.KindNull, false
		}
		if i == 0 {
			kind = ev.Kind()
		} else if ev.Kind() != kind {
			return nil, nil, value.KindNull, false
		}
		b, ok := value.IntBits(ev)
		if !ok {
			return nil, nil, value.KindNull, false
		}
		bs[i] = b
	}
	var shape *value.Shape
	if unary {
		shape, _ = value.ShapeOf([]string{attr})
	}
	return bs, shape, kind, true
}

// intKeys returns the raw bits of keys that are int-backed values of one
// kind, or unary tuples of one shape over such values (value.UnaryInts),
// with that kind and shape.
func intKeys(keys []value.Value) ([]int64, *value.Shape, value.Kind, bool) {
	if len(keys) == 0 {
		return nil, nil, value.KindNull, false
	}
	shape, kind, ok := value.UnaryInts(keys)
	if !ok {
		shape, kind = nil, keys[0].Kind()
		for _, k := range keys {
			if _, ok := value.IntBits(k); !ok || k.Kind() != kind {
				return nil, nil, value.KindNull, false
			}
		}
	}
	bs := make([]int64, len(keys))
	for i, k := range keys {
		if shape != nil {
			k = k.(*value.Tuple).Vals()[0]
		}
		bs[i], _ = value.IntBits(k)
	}
	return bs, shape, kind, true
}

// fibMix scatters int64 keys across power-of-two bucket arrays
// (Fibonacci hashing: multiply by 2^64/φ, keep the high bits).
const fibMix uint64 = 0x9E3779B97F4A7C15

// i64Table is a chained flat hash table over int64 keys: heads holds
// 1-based slot numbers (0 = empty bucket), next chains slots, and slot i is
// build row i. Two slices and no boxing.
type i64Table struct {
	heads []int32
	next  []int32
	keys  []int64
	shift uint
}

func newI64Table(keys []int64) *i64Table {
	nb := 8
	for nb < 2*len(keys) {
		nb <<= 1
	}
	t := &i64Table{
		heads: make([]int32, nb),
		next:  make([]int32, len(keys)),
		keys:  keys,
		shift: uint(64 - bits.Len(uint(nb-1))),
	}
	// Back to front, so that a chain walks its slots in build order like
	// value.Index: every join then offers a left row's matches in one order.
	for i := len(keys) - 1; i >= 0; i-- {
		h := (uint64(keys[i]) * fibMix) >> t.shift
		t.next[i] = t.heads[h]
		t.heads[h] = int32(i + 1)
	}
	return t
}

// first returns the first slot whose key is k, or -1.
func (t *i64Table) first(k int64) int { return t.from(t.heads[(uint64(k)*fibMix)>>t.shift], k) }

// after returns the next slot after i with i's key, or -1.
func (t *i64Table) after(i int) int { return t.from(t.next[i], t.keys[i]) }

// from returns the first slot of the chain from s (1-based) whose key is k.
func (t *i64Table) from(s int32, k int64) int {
	for ; s != 0; s = t.next[s-1] {
		if t.keys[s-1] == k {
			return int(s - 1)
		}
	}
	return -1
}
