package exec

import (
	"repro/internal/adl"
	"repro/internal/col"
	"repro/internal/value"
)

// VecSetJoin is the batch form of the set-probe join: left rows carry a
// set-valued attribute whose elements probe a table built over the right
// operand's key (key(y) ∈ x.attr), and what a left row emits is the shared
// join verdict — it passes or not (semi, anti), or gains an attribute
// collecting the right rows, or their RFun images, its elements found
// (nestjoin: the single-segment PNHL shape with grouping output). It sinks
// the batch pipeline like VecHashJoin.
//
// Its build side is the setKeyTable the scalar SetProbeJoin builds too, so
// the two differ only in how left rows arrive.
type VecSetJoin struct {
	Kind adl.JoinKind // Semi, Anti or NestJ
	L    VecOp
	R    Operator
	Attr string
	RKey Scalar
	As   string
	RFun *Scalar
}

// Open builds the table from the right operand and computes the join
// eagerly.
func (j VecSetJoin) Open(ctx *Ctx) (_ Rows, err error) {
	if err := setJoinKind(j.Kind); err != nil {
		return nil, err
	}
	right, err := drain(j.R, ctx)
	if err != nil {
		return nil, err
	}
	var tab setKeyTable
	if err := tab.build(ctx, right, j.RKey); err != nil {
		return nil, err
	}
	left, err := ctx.openVec(j.L)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := left.CloseVec(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	em := newJoinEmit(ctx, j.Kind, "set-probe join", nil, j.RFun, j.As, nil)
	for {
		b, ok, err := left.NextBatch()
		if err != nil {
			return nil, err
		}
		if !ok {
			return buffered(em.out)
		}
		c := b.Proj.Col(j.Attr)
		for _, i := range b.Sel {
			if err := em.begin(b.Proj.Row(i)); err != nil {
				return nil, err
			}
			// The typed column when present, else the decoded tuple with the
			// scalar SetProbeJoin's exact errors.
			var as *value.Set
			if c != nil && c.Kind() == col.Set {
				as = c.Set(i)
			} else if as, err = setAttr(em.lt, j.Attr); err != nil {
				return nil, err
			}
			tab.probe(as, right, &em)
			if err := em.end(); err != nil {
				return nil, err
			}
		}
	}
}

// setKeyTable is the build side of both set-probe joins, the scalar
// SetProbeJoin and the batch VecSetJoin: the right operand's evaluated keys
// under either the unary-tuple int fast path (a flat i64Table over the raw
// bits) or the generic hash/Equal structure (a value.Index probed with the
// set's stored element hashes).
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
	t.keys = make([]value.Value, len(rrows))
	for i, rrow := range rrows {
		k, err := key.Eval(ctx, rrow)
		if err != nil {
			return err
		}
		t.keys[i] = k
	}
	if bs, shape, kind, ok := unaryIntKeys(t.keys); ok {
		t.u, t.ushape, t.ukind = newI64Table(bs), shape, kind
	} else {
		t.gen = indexKeys(t.keys)
	}
	return nil
}

// probe offers em every (set element, matching build row) pair in element
// order until em asks to stop. On the fast path an element matches when it
// has the unary shape, the kind and the bits of a key — exactly value.Equal
// on that shape.
func (t *setKeyTable) probe(as *value.Set, right []value.Value, em *joinEmit) {
	if t.u == nil {
		hs := as.Hashes()
		for ei, elem := range as.Elems() {
			for ri := t.gen.First(hs[ei]); ri >= 0; ri = t.gen.Next(ri) {
				if value.Equal(t.keys[ri], elem) && em.match(right[ri]) {
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
		b, _ := col.Bits(ev)
		for s := t.u.head(b); s != 0; s = t.u.next[s-1] {
			if t.u.keys[s-1] == b && em.match(right[s-1]) {
				return
			}
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
		b, ok := col.Bits(ev)
		if !ok {
			return nil, nil, value.KindNull, false
		}
		bs[i] = b
	}
	shape, _ := value.ShapeOf(sub.Attrs)
	return bs, shape, kind, true
}

// unaryIntKeys recognizes a uniform build-key shape of unary tuples over one
// int-backed attribute, returning the raw key bits.
func unaryIntKeys(keys []value.Value) ([]int64, *value.Shape, value.Kind, bool) {
	if len(keys) == 0 {
		return nil, nil, value.KindNull, false
	}
	first, ok := keys[0].(*value.Tuple)
	if !ok || first.Len() != 1 {
		return nil, nil, value.KindNull, false
	}
	kind := first.Vals()[0].Kind()
	bs := make([]int64, len(keys))
	for i, k := range keys {
		t, ok := k.(*value.Tuple)
		if !ok || t.Shape != first.Shape || t.Vals()[0].Kind() != kind {
			return nil, nil, value.KindNull, false
		}
		if bs[i], ok = col.Bits(t.Vals()[0]); !ok {
			return nil, nil, value.KindNull, false
		}
	}
	return bs, first.Shape, kind, true
}
