package exec

import (
	"fmt"

	"repro/internal/value"
)

// fanned is the stream of the 1:N operators: fn expands a row of src into
// the rows that wait in pending. fn may reuse the slice it returned once it
// is called again.
type fanned struct {
	src     Rows
	fn      func(row value.Value) ([]value.Value, error)
	pending []value.Value
	ppos    int
}

// Next yields the next expanded row.
func (f *fanned) Next() (value.Value, bool, error) {
	for f.ppos >= len(f.pending) {
		row, ok, err := f.src.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if f.pending, err = f.fn(row); err != nil {
			return nil, false, err
		}
		f.ppos = 0
	}
	row := f.pending[f.ppos]
	f.ppos++
	return row, true, nil
}

// Close closes the child's stream.
func (f *fanned) Close() error { return f.src.Close() }

// UnnestOp implements μ_attr: each input tuple fans out into one row per
// element of its set-valued attribute, concatenated with the remaining
// attributes. Tuples with empty sets are dropped (the PNF caveat).
type UnnestOp struct {
	Child Operator
	Attr  string
}

// Open streams the unnested rows of the child.
func (u UnnestOp) Open(ctx *Ctx) (Rows, error) {
	src, err := ctx.open(u.Child)
	if err != nil {
		return nil, err
	}
	un := unnester{attr: u.Attr}
	var buf []value.Value
	return &fanned{src: src, fn: func(row value.Value) (_ []value.Value, err error) {
		buf, err = un.expand(buf[:0], row)
		return buf, err
	}}, nil
}

// unnester is the one definition of μ_attr, shared by UnnestOp and the hash
// join that expands its left rows inside the probe (HashJoin.Unnest): the
// checks μ makes of a row and of each element of its set, with their error
// texts, and the unnested row elem ∘ rest, where rest is the row without
// attr. The layouts are memoized — rest's per row shape, elem ∘ rest's per
// (element, rest) shape pair — so checking an element allocates nothing and
// a row is built only when asked for. It is per-run state: each run owns its
// own.
type unnester struct {
	attr string

	t    *value.Tuple // the current row, set by set
	slot int          // attr's position in t

	row, rest           *value.Shape // rest is row without attr
	elemOf, restOf, cat *value.Shape // cat is elemOf ∘ restOf
}

// set checks a row and returns the set it unnests; the row becomes current.
func (u *unnester) set(row value.Value) (*value.Set, error) {
	t, err := asTuple(row, "μ")
	if err != nil {
		return nil, err
	}
	slot, ok := t.Slot(u.attr)
	if !ok {
		return nil, fmt.Errorf("exec: μ on missing attribute %q", u.attr)
	}
	set, ok := t.Vals()[slot].(*value.Set)
	if !ok {
		return nil, fmt.Errorf("exec: μ on non-set attribute %q", u.attr)
	}
	if t.Shape != u.row {
		u.row, u.rest = t.Shape, t.Shape.Drop([]string{u.attr})
	}
	u.t, u.slot = t, slot
	return set, nil
}

// elem checks an element of the current row's set: a tuple whose attributes
// do not collide with the rest of the row.
func (u *unnester) elem(el value.Value) (*value.Tuple, error) {
	et, ok := el.(*value.Tuple)
	if !ok {
		return nil, fmt.Errorf("exec: μ element of %q is not a tuple", u.attr)
	}
	if et.Shape != u.elemOf || u.rest != u.restOf {
		cat, err := et.Shape.Concat(u.rest)
		if err != nil {
			return nil, err
		}
		u.elemOf, u.restOf, u.cat = et.Shape, u.rest, cat
	}
	return et, nil
}

// get reads an attribute of the unnested row of et, the element elem last
// checked, without building it.
func (u *unnester) get(et *value.Tuple, name string) (value.Value, bool) {
	if v, ok := et.Get(name); ok || name == u.attr {
		return v, ok
	}
	return u.t.Get(name)
}

// build is the unnested row of et, the element elem last checked.
func (u *unnester) build(et *value.Tuple) *value.Tuple {
	rest := u.t.Vals()
	row, vals := u.cat.Alloc()
	n := copy(vals, et.Vals())
	n += copy(vals[n:], rest[:u.slot])
	copy(vals[n:], rest[u.slot+1:])
	return row
}

// each checks row and hands every element of its set, once checked, to fn.
func (u *unnester) each(row value.Value, fn func(et *value.Tuple) error) error {
	set, err := u.set(row)
	if err != nil {
		return err
	}
	return u.eachOf(set, fn)
}

// eachOf hands every element of set, the current row's, once checked, to fn.
func (u *unnester) eachOf(set *value.Set, fn func(et *value.Tuple) error) error {
	for _, el := range set.Elems() {
		et, err := u.elem(el)
		if err != nil {
			return err
		}
		if err := fn(et); err != nil {
			return err
		}
	}
	return nil
}

// expand appends the unnested rows of row to buf.
func (u *unnester) expand(buf []value.Value, row value.Value) ([]value.Value, error) {
	err := u.each(row, func(et *value.Tuple) error {
		buf = append(buf, u.build(et))
		return nil
	})
	return buf, err
}

// NestOp implements ν_{Attrs→As} by hash grouping: rows are grouped by all
// attributes not in Attrs; each group's Attrs-subtuples are collected into a
// set-valued attribute As.
type NestOp struct {
	Child Operator
	Attrs []string
	As    string
}

// Open groups eagerly (ν is a pipeline breaker).
func (n NestOp) Open(ctx *Ctx) (Rows, error) {
	rows, err := drain(n.Child, ctx)
	if err != nil {
		return nil, err
	}
	type group struct {
		key     *value.Tuple
		members *value.Set
	}
	var groups []*group
	index := map[uint64][]int{}
	for _, row := range rows {
		t, err := asTuple(row, "ν")
		if err != nil {
			return nil, err
		}
		sub, err := t.Subscript(n.Attrs)
		if err != nil {
			return nil, err
		}
		key := t.Drop(n.Attrs)
		h := value.Hash(key)
		found := false
		for _, gi := range index[h] {
			if value.Equal(groups[gi].key, key) {
				groups[gi].members.Add(sub)
				found = true
				break
			}
		}
		if !found {
			index[h] = append(index[h], len(groups))
			groups = append(groups, &group{key: key, members: value.NewSet(sub)})
		}
	}
	out := make([]value.Value, len(groups))
	for i, g := range groups {
		if out[i], err = g.key.With(n.As, g.members); err != nil {
			return nil, err
		}
	}
	return buffered(out)
}

// FlattenOp implements multiple union over a child producing sets.
type FlattenOp struct {
	Child Operator
}

// Open streams the elements of the child's rows.
func (f FlattenOp) Open(ctx *Ctx) (Rows, error) {
	src, err := ctx.open(f.Child)
	if err != nil {
		return nil, err
	}
	return &fanned{src: src, fn: func(row value.Value) ([]value.Value, error) {
		set, isSet := row.(*value.Set)
		if !isSet {
			return nil, fmt.Errorf("exec: flatten over non-set row %s", row.Kind())
		}
		return set.Elems(), nil
	}}, nil
}

// Assembly is the physical counterpart of the materialize operator
// ([BlMG93]): it dereferences an oid-valued attribute (or a set of unary
// oid-reference tuples) through the object store and extends each tuple with
// the referenced object(s) — a pointer-based join, no value comparison and
// no hash table.
type Assembly struct {
	Child Operator
	Attr  string
	As    string
}

// Open streams the child's rows assembled.
func (a Assembly) Open(ctx *Ctx) (Rows, error) { return stream(ctx, a.Child, a, (*Assembly).row, true) }

func (a *Assembly) row(ctx *Ctx, row value.Value) (value.Value, bool, error) {
	t, err := asTuple(row, "assembly")
	if err != nil {
		return nil, false, err
	}
	av, ok := t.Get(a.Attr)
	if !ok {
		return nil, false, fmt.Errorf("exec: assembly on missing attribute %q", a.Attr)
	}
	switch ref := av.(type) {
	case value.OID:
		obj, err := ctx.DB.Deref(ref)
		if err != nil {
			return nil, false, err
		}
		w, err := t.With(a.As, obj)
		return w, err == nil, err
	case *value.Set:
		objs := value.NewSetCap(ref.Len())
		for _, el := range ref.Elems() {
			oid, err := elemOID(el)
			if err != nil {
				return nil, false, err
			}
			obj, err := ctx.DB.Deref(oid)
			if err != nil {
				return nil, false, err
			}
			objs.Add(obj)
		}
		w, err := t.With(a.As, objs)
		return w, err == nil, err
	}
	return nil, false, fmt.Errorf("exec: assembly on non-reference attribute %q", a.Attr)
}

// elemOID extracts the oid from a reference-set element.
func elemOID(el value.Value) (value.OID, error) {
	switch rv := el.(type) {
	case value.OID:
		return rv, nil
	case *value.Tuple:
		if rv.Len() == 1 {
			_, v := rv.At(0)
			if oid, ok := v.(value.OID); ok {
				return oid, nil
			}
		}
	}
	return 0, fmt.Errorf("exec: reference element %v is not an oid", el)
}
