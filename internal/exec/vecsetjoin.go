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
// Build keys of the shape the planner actually produces — x[pid]-style unary
// tuples over an int-backed attribute — get a typed fast path: the table
// holds the raw int64s, and probe elements match when they are unary tuples
// of the same name and kind (exactly value.Equal on that shape). Anything
// else uses the generic hash/Equal structure of the scalar SetProbeJoin.
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
			if err := em.begin(b.Proj.Rows[i]); err != nil {
				return nil, err
			}
			// The typed column when present, else the decoded tuple with the
			// scalar SetProbeJoin's exact errors.
			var as *value.Set
			if c != nil && c.Kind == col.Set {
				as = c.Sets[i]
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

// setKeyTable is the build side of the vectorized set-probe join: the right
// operand's evaluated keys under either the unary-tuple int fast path (a
// flat i64Table over the raw bits) or the generic hash/Equal structure of
// the scalar SetProbeJoin.
type setKeyTable struct {
	keys []value.Value
	gen  *value.Index
	u    *i64Table
	// uname/ukind describe the unary-tuple fast path's element shape.
	uname string
	ukind value.Kind
}

// build evaluates the key over each build row and constructs the table.
func (t *setKeyTable) build(ctx *Ctx, rrows []value.Value, key Scalar) error {
	if bs, name, kind, ok := subscriptIntKeys(rrows, key); ok {
		t.u, t.uname, t.ukind = newI64Table(bs), name, kind
		return nil
	}
	for _, rrow := range rrows {
		k, err := key.Eval(ctx, rrow)
		if err != nil {
			return err
		}
		t.keys = append(t.keys, k)
	}
	if bs, name, kind, ok := unaryIntKeys(t.keys); ok {
		t.u, t.uname, t.ukind = newI64Table(bs), name, kind
	} else {
		t.gen = indexKeys(t.keys)
	}
	return nil
}

// probe offers em every (set element, matching build row) pair in element
// order — the scalar SetProbeJoin's probe loop — until em asks to stop.
func (t *setKeyTable) probe(as *value.Set, right []value.Value, em *joinEmit) {
	for _, elem := range as.Elems() {
		if t.u == nil {
			for ri := t.gen.First(value.Hash(elem)); ri >= 0; ri = t.gen.Next(ri) {
				if value.Equal(t.keys[ri], elem) && em.match(right[ri]) {
					return
				}
			}
			continue
		}
		et, ok := elem.(*value.Tuple)
		if !ok || et.Len() != 1 || et.Names()[0] != t.uname {
			continue
		}
		ev, _ := et.Get(t.uname)
		if ev.Kind() != t.ukind {
			continue
		}
		b, _ := valueBits(ev)
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
// unaryIntKeys would extract from the evaluated keys (name = attr, uniform
// kind, raw bits), so probe semantics are unchanged. ok=false sends the
// caller through the interpreter loop, which also reproduces its errors
// (non-tuple rows, missing attributes).
func subscriptIntKeys(rows []value.Value, key Scalar) ([]int64, string, value.Kind, bool) {
	sub, ok := key.Expr.(*adl.Subscript)
	if !ok || len(sub.Attrs) != 1 || len(key.Vars) != 1 || len(rows) == 0 {
		return nil, "", value.KindNull, false
	}
	v, ok := sub.X.(*adl.Var)
	if !ok || v.Name != key.Vars[0] {
		return nil, "", value.KindNull, false
	}
	attr := sub.Attrs[0]
	var kind value.Kind
	bs := make([]int64, len(rows))
	for i, r := range rows {
		tup, ok := r.(*value.Tuple)
		if !ok {
			return nil, "", value.KindNull, false
		}
		ev, ok := tup.Get(attr)
		if !ok {
			return nil, "", value.KindNull, false
		}
		if i == 0 {
			kind = ev.Kind()
		} else if ev.Kind() != kind {
			return nil, "", value.KindNull, false
		}
		b, ok := valueBits(ev)
		if !ok {
			return nil, "", value.KindNull, false
		}
		bs[i] = b
	}
	return bs, attr, kind, true
}

// unaryIntKeys recognizes a uniform build-key shape of unary tuples over one
// int-backed attribute, returning the raw key bits.
func unaryIntKeys(keys []value.Value) ([]int64, string, value.Kind, bool) {
	if len(keys) == 0 {
		return nil, "", value.KindNull, false
	}
	first, ok := keys[0].(*value.Tuple)
	if !ok || first.Len() != 1 {
		return nil, "", value.KindNull, false
	}
	name := first.Names()[0]
	v, _ := first.Get(name)
	kind := v.Kind()
	if _, ok := valueBits(v); !ok {
		return nil, "", value.KindNull, false
	}
	bs := make([]int64, len(keys))
	for i, k := range keys {
		t, ok := k.(*value.Tuple)
		if !ok || t.Len() != 1 || t.Names()[0] != name {
			return nil, "", value.KindNull, false
		}
		ev, _ := t.Get(name)
		if ev.Kind() != kind {
			return nil, "", value.KindNull, false
		}
		bs[i], _ = valueBits(ev)
	}
	return bs, name, kind, true
}
