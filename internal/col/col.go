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

import "repro/internal/value"

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

// Col is one decoded attribute across all rows of a projection. Exactly one
// backing slice is populated, chosen by kind: ints carries the IntBits of Int,
// Date, OID and Bool values; floats, strs and sets their namesakes. A Mixed
// column has no backing.
type Col struct {
	kind   Kind
	ints   []int64
	floats []float64
	strs   []string
	sets   []*value.Set
}

// Kind reports the column's kind; Int (the IntBits of an Int, Date, OID or Bool
// column), Float, Str and Set return row i.
func (c *Col) Kind() Kind             { return c.kind }
func (c *Col) Int(i int32) int64      { return c.ints[i] }
func (c *Col) Float(i int32) float64  { return c.floats[i] }
func (c *Col) Str(i int32) string     { return c.strs[i] }
func (c *Col) Set(i int32) *value.Set { return c.sets[i] }

// Proj is a columnar projection of one extent: the original rows (tuples, in
// extent order) plus the decoded columns for the attributes a pipeline
// reads. A Proj is immutable once built and safe to share across queries.
type Proj struct {
	extent string
	rows   []value.Value
	cols   map[string]*Col
}

// New builds a projection of rows, decoding the named attributes. Attributes
// that cannot be uniformly typed decode to Mixed columns; rows is retained,
// not copied.
func New(extent string, rows []value.Value, attrs []string) *Proj {
	p := &Proj{extent: extent, rows: rows, cols: make(map[string]*Col, len(attrs))}
	for _, a := range attrs {
		if _, dup := p.cols[a]; !dup {
			p.cols[a] = decode(rows, a)
		}
	}
	return p
}

// Extent names the projected extent; Len counts its rows; Row returns row i,
// the tuple as stored.
func (p *Proj) Extent() string          { return p.extent }
func (p *Proj) Len() int                { return len(p.rows) }
func (p *Proj) Row(i int32) value.Value { return p.rows[i] }

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

// decode types one attribute across all rows, bailing to Mixed on the first
// row that breaks uniformity.
func decode(rows []value.Value, attr string) *Col {
	c := &Col{}
	for i, r := range rows {
		t, ok := r.(*value.Tuple)
		if !ok {
			return &Col{kind: Mixed}
		}
		v, ok := t.Get(attr)
		if !ok {
			return &Col{kind: Mixed}
		}
		k := KindOf(v.Kind())
		if k == Mixed {
			return &Col{kind: Mixed}
		}
		if i == 0 {
			c.kind = k
			switch k {
			case Int, Date, OID, Bool:
				c.ints = make([]int64, 0, len(rows))
			case Float:
				c.floats = make([]float64, 0, len(rows))
			case Str:
				c.strs = make([]string, 0, len(rows))
			case Set:
				c.sets = make([]*value.Set, 0, len(rows))
			}
		} else if k != c.kind {
			return &Col{kind: Mixed}
		}
		switch k {
		case Float:
			c.floats = append(c.floats, float64(v.(value.Float)))
		case Str:
			c.strs = append(c.strs, string(v.(value.String)))
		case Set:
			c.sets = append(c.sets, v.(*value.Set))
		default:
			b, _ := value.IntBits(v)
			c.ints = append(c.ints, b)
		}
	}
	return c
}
