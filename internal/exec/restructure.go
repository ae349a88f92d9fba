package exec

import (
	"fmt"

	"repro/internal/value"
)

// UnnestOp implements μ_attr: each input tuple fans out into one row per
// element of its set-valued attribute, concatenated with the remaining
// attributes. Tuples with empty sets are dropped (the PNF caveat).
type UnnestOp struct {
	Child Operator
	Attr  string

	pending []value.Value
	ppos    int
	// out is elem ∘ rest, derived when an element or its row changes layout.
	elem, rest, out *value.Shape
}

// Open opens the child.
func (u *UnnestOp) Open(ctx *Ctx) error {
	u.pending = nil
	u.ppos = 0
	return u.Child.Open(ctx)
}

// Next yields the next unnested row.
func (u *UnnestOp) Next() (value.Value, bool, error) {
	for {
		if u.ppos < len(u.pending) {
			row := u.pending[u.ppos]
			u.ppos++
			return row, true, nil
		}
		row, ok, err := u.Child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		t, err := asTuple(row, "μ")
		if err != nil {
			return nil, false, err
		}
		av, ok := t.Get(u.Attr)
		if !ok {
			return nil, false, fmt.Errorf("exec: μ on missing attribute %q", u.Attr)
		}
		set, ok := av.(*value.Set)
		if !ok {
			return nil, false, fmt.Errorf("exec: μ on non-set attribute %q", u.Attr)
		}
		rest := t.Drop([]string{u.Attr})
		u.pending = u.pending[:0]
		u.ppos = 0
		for _, el := range set.Elems() {
			et, ok := el.(*value.Tuple)
			if !ok {
				return nil, false, fmt.Errorf("exec: μ element of %q is not a tuple", u.Attr)
			}
			if et.Shape != u.elem || rest.Shape != u.rest {
				out, err := et.Shape.Concat(rest.Shape)
				if err != nil {
					return nil, false, err
				}
				u.elem, u.rest, u.out = et.Shape, rest.Shape, out
			}
			vals := make([]value.Value, 0, u.out.Len())
			vals = append(append(vals, et.Vals()...), rest.Vals()...)
			u.pending = append(u.pending, u.out.New(vals))
		}
	}
}

// Close closes the child.
func (u *UnnestOp) Close() error { return u.Child.Close() }

// NestOp implements ν_{Attrs→As} by hash grouping: rows are grouped by all
// attributes not in Attrs; each group's Attrs-subtuples are collected into a
// set-valued attribute As.
type NestOp struct {
	Child Operator
	Attrs []string
	As    string

	rowBuf
}

// Open groups eagerly (ν is a pipeline breaker).
func (n *NestOp) Open(ctx *Ctx) error {
	rows, err := drain(n.Child, ctx)
	if err != nil {
		return err
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
			return err
		}
		sub, err := t.Subscript(n.Attrs)
		if err != nil {
			return err
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
	n.reset()
	for _, g := range groups {
		n.out = append(n.out, g.key.With(n.As, g.members))
	}
	return nil
}

// Close releases buffers.
func (n *NestOp) Close() error { n.out = nil; return n.Child.Close() }

// FlattenOp implements multiple union over a child producing sets.
type FlattenOp struct {
	Child Operator

	pending []value.Value
	ppos    int
}

// Open opens the child.
func (f *FlattenOp) Open(ctx *Ctx) error {
	f.pending = nil
	f.ppos = 0
	return f.Child.Open(ctx)
}

// Next yields the next inner element.
func (f *FlattenOp) Next() (value.Value, bool, error) {
	for {
		if f.ppos < len(f.pending) {
			row := f.pending[f.ppos]
			f.ppos++
			return row, true, nil
		}
		row, ok, err := f.Child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		set, isSet := row.(*value.Set)
		if !isSet {
			return nil, false, fmt.Errorf("exec: flatten over non-set row %s", row.Kind())
		}
		f.pending = set.Elems()
		f.ppos = 0
	}
}

// Close closes the child.
func (f *FlattenOp) Close() error { return f.Child.Close() }

// DivideOp implements relational division [Codd72], the classical operator
// for universal quantification (§3): with SCH(L) = A ∪ B and SCH(R) = B,
// it returns the A-subtuples of L paired with every R tuple. The
// implementation hash-groups L by its A-part and checks each group for
// coverage of R.
type DivideOp struct {
	L, R Operator

	rowBuf
}

// Open computes the division eagerly.
func (d *DivideOp) Open(ctx *Ctx) error {
	lrows, err := drain(d.L, ctx)
	if err != nil {
		return err
	}
	rrows, err := drain(d.R, ctx)
	if err != nil {
		return err
	}
	d.reset()
	if len(lrows) == 0 {
		return nil
	}
	var bNames []string
	if len(rrows) > 0 {
		rt, err := asTuple(rrows[0], "÷")
		if err != nil {
			return err
		}
		bNames = rt.Names()
	}
	divisor := value.NewSetCap(len(rrows))
	for _, r := range rrows {
		divisor.Add(r)
	}
	// Group L rows by their A-part, collecting the B-parts.
	type group struct {
		key   *value.Tuple
		bPart *value.Set
	}
	var groups []*group
	index := map[uint64][]int{}
	for _, lrow := range lrows {
		lt, err := asTuple(lrow, "÷")
		if err != nil {
			return err
		}
		key := lt.Drop(bNames)
		b, err := lt.Subscript(bNames)
		if err != nil {
			return err
		}
		h := value.Hash(key)
		found := false
		for _, gi := range index[h] {
			if value.Equal(groups[gi].key, key) {
				groups[gi].bPart.Add(b)
				found = true
				break
			}
		}
		if !found {
			index[h] = append(index[h], len(groups))
			groups = append(groups, &group{key: key, bPart: value.NewSet(b)})
		}
	}
	for _, g := range groups {
		if divisor.SubsetOf(g.bPart) {
			d.out = append(d.out, g.key)
		}
	}
	return nil
}

// Close releases buffers.
func (d *DivideOp) Close() error { d.out = nil; return nil }

// RenameOp implements ρ_{from→to}.
type RenameOp struct {
	Child    Operator
	From, To string
}

// Open opens the child.
func (r *RenameOp) Open(ctx *Ctx) error { return r.Child.Open(ctx) }

// Next yields the next renamed row.
func (r *RenameOp) Next() (value.Value, bool, error) {
	row, ok, err := r.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	t, err := asTuple(row, "ρ")
	if err != nil {
		return nil, false, err
	}
	v, ok := t.Get(r.From)
	if !ok {
		return nil, false, fmt.Errorf("exec: ρ on missing attribute %q", r.From)
	}
	renamed := t.Drop([]string{r.From})
	if renamed.Has(r.To) {
		return nil, false, fmt.Errorf("exec: ρ target attribute %q already exists", r.To)
	}
	return renamed.With(r.To, v), true, nil
}

// Close closes the child.
func (r *RenameOp) Close() error { return r.Child.Close() }

// Assembly is the physical counterpart of the materialize operator
// ([BlMG93]): it dereferences an oid-valued attribute (or a set of unary
// oid-reference tuples) through the object store and extends each tuple with
// the referenced object(s) — a pointer-based join, no value comparison and
// no hash table.
type Assembly struct {
	Child Operator
	Attr  string
	As    string

	ctx *Ctx
}

// Open opens the child.
func (a *Assembly) Open(ctx *Ctx) error { a.ctx = ctx; return a.Child.Open(ctx) }

// Next yields the next assembled row.
func (a *Assembly) Next() (value.Value, bool, error) {
	row, ok, err := a.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
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
		obj, err := a.ctx.DB.Deref(ref)
		if err != nil {
			return nil, false, err
		}
		return t.With(a.As, obj), true, nil
	case *value.Set:
		objs := value.NewSetCap(ref.Len())
		for _, el := range ref.Elems() {
			oid, err := elemOID(el)
			if err != nil {
				return nil, false, err
			}
			obj, err := a.ctx.DB.Deref(oid)
			if err != nil {
				return nil, false, err
			}
			objs.Add(obj)
		}
		return t.With(a.As, objs), true, nil
	}
	return nil, false, fmt.Errorf("exec: assembly on non-reference attribute %q", a.Attr)
}

// Close closes the child.
func (a *Assembly) Close() error { return a.Child.Close() }

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
