package exec

import (
	"fmt"
	"math/bits"

	"repro/internal/adl"
	"repro/internal/value"
)

// SetProbeJoin is the set-oriented implementation of joins whose predicate
// is a membership test against a set-valued attribute of the left operand:
//
//	L ⋉/▷/⊣ (x,y : key(y) ∈ x.attr) R
//
// — exactly the predicate shape the paper's Example Queries 5 and 6 reach
// after rewriting (p[pid] ∈ s.parts). The right operand is hashed once by
// key into a setKeyTable (a typed table over raw ints for the p[pid] shape);
// each left tuple probes with the elements of its set-valued attribute, or,
// when the store keeps that set with its reference column
// (value.Set.Column), with the column's bits, never touching an element. A
// nestjoin whose group members are the build rows themselves (no RFun) adds
// each with the hash the build side kept beside it. This is the
// single-segment core of the PNHL idea: the flat table is the build input,
// the nested operand probes.
type SetProbeJoin struct {
	Kind adl.JoinKind
	L, R Operator
	// Attr is the set-valued attribute of left tuples whose elements are
	// probe keys.
	Attr string
	// RKey computes the build key of right rows (e.g. p[pid]).
	RKey Scalar
	As   string
	RFun *Scalar
}

// Open builds and probes.
func (j SetProbeJoin) Open(ctx *Ctx) (Rows, error) {
	if err := setJoinKind(j.Kind); err != nil {
		return nil, err
	}
	rrows, err := drain(j.R, ctx)
	if err != nil {
		return nil, err
	}
	var tab setKeyTable
	if err := tab.build(ctx, rrows, j.RKey); err != nil {
		return nil, err
	}
	lrows, err := drain(j.L, ctx)
	if err != nil {
		return nil, err
	}
	em := newJoinEmit(ctx, j.Kind, "set-probe join", nil, j.RFun, j.As, rrows)
	em.rhashes = memberHashes(j.Kind, j.RFun, rrows)
	for _, lrow := range lrows {
		if err := em.begin(lrow); err != nil {
			return nil, err
		}
		as, err := setAttr(em.lt, j.Attr)
		if err != nil {
			return nil, err
		}
		tab.probe(as, &em)
		if err := em.end(); err != nil {
			return nil, err
		}
	}
	return buffered(em.out)
}

// setJoinKind rejects the kinds a set-probe join has no output rule for: the
// membership predicate pairs a left row with right rows, never concatenates
// them.
func setJoinKind(kind adl.JoinKind) error {
	switch kind {
	case adl.Semi, adl.Anti, adl.NestJ:
		return nil
	}
	return fmt.Errorf("exec: set-probe join does not support kind %v", kind)
}

// setAttr reads the set-valued probe attribute of a left tuple.
func setAttr(lt *value.Tuple, attr string) (*value.Set, error) {
	av, ok := lt.Get(attr)
	if !ok {
		return nil, fmt.Errorf("exec: set-probe join on missing attribute %q", attr)
	}
	as, ok := av.(*value.Set)
	if !ok {
		return nil, fmt.Errorf("exec: set-probe join on non-set attribute %q", attr)
	}
	return as, nil
}

// setKeyTable is the build side of the set-probe join: the right operand's
// evaluated keys under either the unary-tuple int fast path (a flat i64Table
// over the raw bits) or the generic hash/Equal structure (a value.Index
// probed with the set's stored element hashes).
type setKeyTable struct {
	keys []value.Value
	gen  *value.Index
	u    *i64Table
	// ushape/ukind describe the fast path's element: the canonical unary
	// shape and the kind of its one value.
	ushape *value.Shape
	ukind  value.Kind
}

// build evaluates the key over each build row and constructs the table.
func (t *setKeyTable) build(ctx *Ctx, rrows []value.Value, key Scalar) error {
	if bs, shape, kind, ok := subscriptIntKeys(rrows, key); ok {
		t.u, t.ushape, t.ukind = newI64Table(bs), shape, kind
		return nil
	}
	r, err := evalKeys(ctx, rrows, key, 1)
	if err != nil {
		return err
	}
	t.keys = r.keys
	if bs, shape, kind, ok := unaryIntKeys(t.keys); ok {
		t.u, t.ushape, t.ukind = newI64Table(bs), shape, kind
	} else {
		t.gen = value.NewIndex(r.hashes)
	}
	return nil
}

// probe offers em every (set element, matching build row) pair in element
// order until em asks to stop. On the fast path an element matches when it
// has the unary shape, the kind and the bits of a key — exactly value.Equal
// on that shape — and a set with a reference column is probed by the
// column's bits: its elements all have the column's shape and kind, so they
// match the table's, or none does.
func (t *setKeyTable) probe(as *value.Set, em *joinEmit) {
	if t.u == nil {
		hs := as.Hashes()
		for ei, elem := range as.Elems() {
			for ri := t.gen.First(hs[ei]); ri >= 0; ri = t.gen.Next(ri) {
				if value.Equal(t.keys[ri], elem) && em.matchAt(ri) {
					return
				}
			}
		}
		return
	}
	if shape, kind, bits := as.Column(); shape != nil {
		if shape == t.ushape && kind == t.ukind {
			for _, b := range bits {
				if t.u.find(b, em) {
					return
				}
			}
		}
		return
	}
	for _, elem := range as.Elems() {
		et, ok := elem.(*value.Tuple)
		if !ok || et.Shape != t.ushape {
			continue
		}
		ev := et.Vals()[0]
		if ev.Kind() != t.ukind {
			continue
		}
		b, _ := value.IntBits(ev)
		if t.u.find(b, em) {
			return
		}
	}
}

// subscriptIntKeys evaluates a v[attr] build key straight off the tuples
// when every row carries an int-backed value of one kind under attr — the
// unary-tuple fast path's table built without materializing a single unary
// tuple or environment frame. The shape produced is exactly what
// unaryIntKeys would extract from the evaluated keys (the unary shape of
// attr, uniform kind, raw bits), so probe semantics are unchanged. ok=false
// sends the caller through the interpreter loop, which also reproduces its
// errors (non-tuple rows, missing attributes).
func subscriptIntKeys(rows []value.Value, key Scalar) ([]int64, *value.Shape, value.Kind, bool) {
	sub, ok := key.Expr.(*adl.Subscript)
	if !ok || len(sub.Attrs) != 1 || len(key.Vars) != 1 || len(rows) == 0 {
		return nil, nil, value.KindNull, false
	}
	v, ok := sub.X.(*adl.Var)
	if !ok || v.Name != key.Vars[0] {
		return nil, nil, value.KindNull, false
	}
	attr := sub.Attrs[0]
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
	shape, _ := value.ShapeOf(sub.Attrs)
	return bs, shape, kind, true
}

// unaryIntKeys recognizes a uniform build-key shape of unary tuples over one
// int-backed attribute (value.UnaryInts), returning the raw key bits.
func unaryIntKeys(keys []value.Value) ([]int64, *value.Shape, value.Kind, bool) {
	shape, kind, ok := value.UnaryInts(keys)
	if !ok {
		return nil, nil, value.KindNull, false
	}
	bs := make([]int64, len(keys))
	for i, k := range keys {
		bs[i], _ = value.IntBits(k.(*value.Tuple).Vals()[0])
	}
	return bs, shape, kind, true
}

// fibMix scatters int64 keys across power-of-two bucket arrays
// (Fibonacci hashing: multiply by 2^64/φ, keep the high bits).
const fibMix uint64 = 0x9E3779B97F4A7C15

// i64Table is a chained flat hash table over int64 keys: heads holds
// 1-based slot numbers (0 = empty bucket), next chains slots, and slot i is
// build row i. Two slices and no boxing — the set-probe join's table for
// unary int-backed keys (p[pid]).
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

// find offers em the build rows whose key is k, in build order, until em
// asks to stop; it reports whether em did.
func (t *i64Table) find(k int64, em *joinEmit) (stop bool) {
	for s := t.heads[(uint64(k)*fibMix)>>t.shift]; s != 0; s = t.next[s-1] {
		if t.keys[s-1] == k && em.matchAt(int(s-1)) {
			return true
		}
	}
	return false
}
