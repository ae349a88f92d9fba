// Package col provides columnar projections of extents for the batch
// executor: each referenced attribute is decoded once per extent into a
// typed slice (int64/float64/string/oid/set), so vectorized operators scan
// flat arrays instead of probing tuple attribute maps row by row.
//
// A projection keeps the original tuple rows alongside the decoded columns.
// The rows are what operators emit (results are always value.Value), and
// they are the fallback for anything the columnar fast paths cannot type: an
// attribute that is missing on some row, mixed-kind, or nested gets a Mixed
// column, and the operator evaluates those rows through the reference
// interpreter — same semantics, same errors, just slower. A projection is
// shared by every query that scans its extent, so no slice leaves this
// package: readers get one element at a time, by an int32 row index.
package col

import (
	"slices"

	"repro/internal/value"
)

// Kind classifies a decoded column.
type Kind uint8

// Column kinds. Mixed marks an attribute the decoder could not type
// uniformly (missing on some row, differing kinds, nulls, or nested tuples);
// operators must fall back to row-wise evaluation for it.
const (
	Mixed Kind = iota
	Bool
	Int
	Float
	Str
	Date
	OID
	Set
)

// Rows and column values are stored in chunks of chunkLen rows, so that a
// projection patched after a write shares every chunk the write left alone
// with the projection it was patched from.
const (
	chunkBits = 8
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

// Col is one decoded attribute across all rows of a projection. Exactly one
// backing is populated, chosen by kind: ints carries the IntBits of Int,
// Date, OID and Bool values; floats, strs and sets their namesakes. A Mixed
// column has no backing.
type Col struct {
	kind   Kind
	ints   [][]int64
	floats [][]float64
	strs   [][]string
	sets   [][]*value.Set
}

// Kind reports the column's kind; Int (the IntBits of an Int, Date, OID or Bool
// column), Float, Str and Set return row i.
func (c *Col) Kind() Kind             { return c.kind }
func (c *Col) Int(i int32) int64      { return c.ints[i>>chunkBits][i&chunkMask] }
func (c *Col) Float(i int32) float64  { return c.floats[i>>chunkBits][i&chunkMask] }
func (c *Col) Str(i int32) string     { return c.strs[i>>chunkBits][i&chunkMask] }
func (c *Col) Set(i int32) *value.Set { return c.sets[i>>chunkBits][i&chunkMask] }

// Proj is a columnar projection of one extent: the original rows (tuples, in
// extent order) plus the decoded columns for the attributes a pipeline
// reads. A Proj is immutable once built and safe to share across queries.
type Proj struct {
	extent string
	n      int
	rows   [][]value.Value
	cols   map[string]*Col
}

// New builds a projection of rows, decoding the named attributes. Attributes
// that cannot be uniformly typed decode to Mixed columns.
func New(extent string, rows []value.Value, attrs []string) *Proj {
	return Patch(&Proj{extent: extent}, len(rows),
		func(i int) (value.Value, bool) { return rows[i], false }, attrs)
}

// Patch builds the projection of n rows of prev's extent, decoding the named
// attributes. row(i), called once per row in order, returns row i and
// whether prev holds the same stored tuple at index i. A chunk whose rows
// all are prev's is shared with prev: its values are not decoded again.
func Patch(prev *Proj, n int, row func(i int) (value.Value, bool), attrs []string) *Proj {
	p := &Proj{extent: prev.extent, n: n, rows: make([][]value.Value, 0, (n+chunkMask)/chunkLen),
		cols: make(map[string]*Col, len(attrs))}
	var bs []*builder
	for _, a := range attrs {
		if _, dup := p.cols[a]; !dup {
			b := &builder{attr: a, c: &Col{}, prev: prev.cols[a]}
			p.cols[a], bs = b.c, append(bs, b)
		}
	}
	var rows [chunkLen]value.Value
	for lo := 0; lo < n; lo += chunkLen {
		m, ci := min(chunkLen, n-lo), lo>>chunkBits
		same := ci < len(prev.rows) && len(prev.rows[ci]) == m
		for k := range m {
			var kept bool
			rows[k], kept = row(lo + k)
			same = same && kept
		}
		if same {
			p.rows = append(p.rows, prev.rows[ci])
		} else {
			p.rows = append(p.rows, slices.Clone(rows[:m]))
		}
		for _, b := range bs {
			b.chunk(ci, same, rows[:m])
		}
	}
	for _, b := range bs {
		if b.mixed || n == 0 {
			p.cols[b.attr] = &Col{kind: Mixed}
		}
	}
	return p
}

// Extent names the projected extent; Len counts its rows; Row returns row i,
// the tuple as stored.
func (p *Proj) Extent() string          { return p.extent }
func (p *Proj) Len() int                { return p.n }
func (p *Proj) Row(i int32) value.Value { return p.rows[i>>chunkBits][i&chunkMask] }

// Col returns the decoded column for attr, or nil when attr was not
// requested at build time. Callers must treat a nil column like a Mixed one:
// evaluate row-wise.
func (p *Proj) Col(attr string) *Col { return p.cols[attr] }

// Attrs returns the decoded attribute names (order unspecified).
func (p *Proj) Attrs() []string {
	out := make([]string, 0, len(p.cols))
	for a := range p.cols {
		out = append(out, a)
	}
	return out
}

// KindOf maps a value kind to the kind of column that stores its values;
// tuples and nulls are not columnar (Mixed).
func KindOf(k value.Kind) Kind { return kinds[k] }

var kinds = [...]Kind{value.KindBool: Bool, value.KindInt: Int, value.KindFloat: Float,
	value.KindString: Str, value.KindDate: Date, value.KindOID: OID, value.KindSet: Set}

// builder accumulates one column of Patch, chunk by chunk. The column takes
// the kind of its first row and turns Mixed on the first row that breaks
// uniformity: one that is no tuple, lacks the attribute, or holds a value of
// another kind or of no columnar kind.
type builder struct {
	attr  string
	c     *Col
	prev  *Col // prev's column of attr, or nil
	mixed bool
}

// chunk appends chunk ci of rows: prev's own chunk when same (the rows are
// prev's, at the same indices) and prev's column is typed, else the
// decoded rows.
func (b *builder) chunk(ci int, same bool, rows []value.Value) {
	if b.mixed {
		return
	}
	c, pc := b.c, b.prev
	if same && pc != nil && pc.kind != Mixed {
		if ci == 0 {
			c.kind = pc.kind
		}
		if b.mixed = pc.kind != c.kind; b.mixed {
			return
		}
		switch pc.kind {
		case Float:
			c.floats = append(c.floats, pc.floats[ci])
		case Str:
			c.strs = append(c.strs, pc.strs[ci])
		case Set:
			c.sets = append(c.sets, pc.sets[ci])
		default:
			c.ints = append(c.ints, pc.ints[ci])
		}
		return
	}
	for k, r := range rows {
		kind := Mixed
		var v value.Value
		if t, ok := r.(*value.Tuple); ok {
			if v, ok = t.Get(b.attr); ok {
				kind = KindOf(v.Kind())
			}
		}
		if ci == 0 && k == 0 {
			c.kind = kind
		}
		if b.mixed = kind == Mixed || kind != c.kind; b.mixed {
			return
		}
		if k == 0 {
			switch kind {
			case Float:
				c.floats = append(c.floats, make([]float64, len(rows)))
			case Str:
				c.strs = append(c.strs, make([]string, len(rows)))
			case Set:
				c.sets = append(c.sets, make([]*value.Set, len(rows)))
			default:
				c.ints = append(c.ints, make([]int64, len(rows)))
			}
		}
		switch kind {
		case Float:
			c.floats[ci][k] = float64(v.(value.Float))
		case Str:
			c.strs[ci][k] = string(v.(value.String))
		case Set:
			c.sets[ci][k] = v.(*value.Set)
		default:
			c.ints[ci][k], _ = value.IntBits(v)
		}
	}
}
