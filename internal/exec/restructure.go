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
	var (
		buf []value.Value
		// out is elem ∘ rest, derived when an element or its row changes layout.
		elem, rest, out *value.Shape
	)
	return &fanned{src: src, fn: func(row value.Value) ([]value.Value, error) {
		t, err := asTuple(row, "μ")
		if err != nil {
			return nil, err
		}
		av, ok := t.Get(u.Attr)
		if !ok {
			return nil, fmt.Errorf("exec: μ on missing attribute %q", u.Attr)
		}
		set, ok := av.(*value.Set)
		if !ok {
			return nil, fmt.Errorf("exec: μ on non-set attribute %q", u.Attr)
		}
		others := t.Drop([]string{u.Attr})
		buf = buf[:0]
		for _, el := range set.Elems() {
			et, ok := el.(*value.Tuple)
			if !ok {
				return nil, fmt.Errorf("exec: μ element of %q is not a tuple", u.Attr)
			}
			if et.Shape != elem || others.Shape != rest {
				cat, err := et.Shape.Concat(others.Shape)
				if err != nil {
					return nil, err
				}
				elem, rest, out = et.Shape, others.Shape, cat
			}
			vals := make([]value.Value, 0, out.Len())
			vals = append(append(vals, et.Vals()...), others.Vals()...)
			buf = append(buf, out.New(vals))
		}
		return buf, nil
	}}, nil
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
		out[i] = g.key.With(n.As, g.members)
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

// DivideOp implements relational division [Codd72], the classical operator
// for universal quantification (§3): with SCH(L) = A ∪ B and SCH(R) = B,
// it returns the A-subtuples of L paired with every R tuple. The
// implementation hash-groups L by its A-part and checks each group for
// coverage of R.
type DivideOp struct {
	L, R Operator
}

// Open computes the division eagerly.
func (d DivideOp) Open(ctx *Ctx) (Rows, error) {
	lrows, err := drain(d.L, ctx)
	if err != nil {
		return nil, err
	}
	rrows, err := drain(d.R, ctx)
	if err != nil {
		return nil, err
	}
	if len(lrows) == 0 {
		return buffered(nil)
	}
	var bNames []string
	if len(rrows) > 0 {
		rt, err := asTuple(rrows[0], "÷")
		if err != nil {
			return nil, err
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
			return nil, err
		}
		key := lt.Drop(bNames)
		b, err := lt.Subscript(bNames)
		if err != nil {
			return nil, err
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
	var out []value.Value
	for _, g := range groups {
		if divisor.SubsetOf(g.bPart) {
			out = append(out, g.key)
		}
	}
	return buffered(out)
}

// RenameOp implements ρ_{from→to}.
type RenameOp struct {
	Child    Operator
	From, To string
}

// Open streams the child's rows renamed.
func (r RenameOp) Open(ctx *Ctx) (Rows, error) { return ctx.stream(r.Child, r.row) }

func (r RenameOp) row(_ *Ctx, row value.Value) (value.Value, bool, error) {
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
func (a Assembly) Open(ctx *Ctx) (Rows, error) { return ctx.stream(a.Child, a.row) }

func (a Assembly) row(ctx *Ctx, row value.Value) (value.Value, bool, error) {
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
		return t.With(a.As, obj), true, nil
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
		return t.With(a.As, objs), true, nil
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
