package value

import (
	"slices"
	"strconv"
	"sync"
)

// canon is the state of one canonical-order pass: a top-level Compare, a
// Sorted call, or the rendering of one value. Canonical order is a property
// of values, but establishing it costs a sort per set, and a comparison sort
// asks for the order of an element's nested sets O(log n) times. A canon
// orders each set a comparison reaches once per pass and keeps the sequence
// for the remaining comparisons and for the rendering afterwards. It lives
// outside the values — a Set or Tuple caches nothing, so shared values stay
// safe to read concurrently — and is not itself safe for concurrent use.
// The zero canon is ready to use.
type canon struct {
	// seqs holds the canonical sequence of every set a comparison ordered.
	seqs map[*Set][]Value
	// stack is the renderer's scratch: a set that no comparison ordered is
	// copied to the top, sorted and printed there, then popped.
	stack []Value
}

// compare is Compare under the pass's memo.
func (c *canon) compare(a, b Value) int {
	switch av := a.(type) {
	case Null:
		if _, ok := b.(Null); ok {
			return 0
		}
	case Bool:
		if bv, ok := b.(Bool); ok {
			switch {
			case av == bv:
				return 0
			case bool(bv):
				return -1
			default:
				return 1
			}
		}
	case Int:
		if bv, ok := b.(Int); ok {
			return cmpOrdered(av, bv)
		}
	case Float:
		if bv, ok := b.(Float); ok {
			return cmpOrdered(av, bv)
		}
	case String:
		if bv, ok := b.(String); ok {
			return cmpOrdered(av, bv)
		}
	case Date:
		if bv, ok := b.(Date); ok {
			return cmpOrdered(av, bv)
		}
	case OID:
		if bv, ok := b.(OID); ok {
			return cmpOrdered(av, bv)
		}
	case *Tuple:
		if bt, ok := b.(*Tuple); ok {
			return c.compareTuples(av, bt)
		}
	case *Set:
		if bs, ok := b.(*Set); ok {
			if av.Len() != bs.Len() {
				return av.Len() - bs.Len()
			}
			as, bss := c.sorted(av), c.sorted(bs)
			for i := range as {
				if r := c.compare(as[i], bss[i]); r != 0 {
					return r
				}
			}
			return 0
		}
	default:
		panic("value.Compare: unknown kind")
	}
	return int(a.Kind()) - int(b.Kind())
}

// compareTuples orders tuples by name-sorted attribute list, then values.
// Tuples of one layout — any two rows of a typed extent — share the order
// their shape resolved and never compare names.
func (c *canon) compareTuples(a, b *Tuple) int {
	ai, bi := a.order, b.order
	if a.Shape == b.Shape {
		return c.compareAligned(a, b, ai)
	}
	an, bn := a.names, b.names
	for k := 0; k < len(ai) && k < len(bi); k++ {
		if x, y := an[ai[k]], bn[bi[k]]; x != y {
			if x < y {
				return -1
			}
			return 1
		}
		if r := c.compare(a.vals[ai[k]], b.vals[bi[k]]); r != 0 {
			return r
		}
	}
	return a.Len() - b.Len()
}

// compareAligned compares two tuples of one layout, whose attrOrder is order.
func (c *canon) compareAligned(a, b *Tuple, order []int) int {
	for _, i := range order {
		if r := c.compare(a.vals[i], b.vals[i]); r != 0 {
			return r
		}
	}
	return 0
}

// sorted returns the canonical sequence of s, memoized for the pass. The
// result is shared: callers must not modify it.
func (c *canon) sorted(s *Set) []Value {
	if len(s.elems) < 2 {
		return s.elems
	}
	seq, ok := c.seqs[s]
	if !ok {
		seq = slices.Clone(s.elems)
		c.sort(seq)
		if c.seqs == nil {
			c.seqs = make(map[*Set][]Value)
		}
		c.seqs[s] = seq
	}
	return seq
}

// sort puts the elements of one set into canonical order in place. The two
// common shapes skip the generic comparison: atoms of one kind (oids, names,
// prices) are compared on the concrete type, and tuples of one layout (the
// rows of a result) share one attribute permutation resolved up front.
func (c *canon) sort(vs []Value) {
	if len(vs) < 2 {
		return
	}
	if kind, ok := uniformKind(vs); ok {
		switch kind {
		case KindInt:
			sortAtoms[Int](vs)
			return
		case KindFloat:
			sortAtoms[Float](vs)
			return
		case KindString:
			sortAtoms[String](vs)
			return
		case KindDate:
			sortAtoms[Date](vs)
			return
		case KindOID:
			sortAtoms[OID](vs)
			return
		case KindTuple:
			if sameLayout(vs) {
				order := vs[0].(*Tuple).order
				slices.SortFunc(vs, func(a, b Value) int {
					return c.compareAligned(a.(*Tuple), b.(*Tuple), order)
				})
				return
			}
		}
	}
	slices.SortFunc(vs, c.compare)
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
	~int32 | ~int64 | ~uint64 | ~float64 | ~string
}](vs []Value) {
	slices.SortFunc(vs, func(a, b Value) int { return cmpOrdered(a.(T), b.(T)) })
}

func cmpOrdered[T interface {
	~int32 | ~int64 | ~uint64 | ~float64 | ~string
}](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// appendText appends the canonical text of v to dst: the paper's surface
// notation, tuples in declaration order, sets in canonical order.
func (c *canon) appendText(dst []byte, v Value) []byte {
	switch vv := v.(type) {
	case Null:
		return append(dst, "null"...)
	case Bool:
		return strconv.AppendBool(dst, bool(vv))
	case Int:
		return strconv.AppendInt(dst, int64(vv), 10)
	case Float:
		return strconv.AppendFloat(dst, float64(vv), 'g', -1, 64)
	case String:
		return appendQuoted(dst, string(vv))
	case Date:
		// d%06d: zero-padded to six characters, a sign counting as one.
		dst = append(dst, 'd')
		n, width := int64(vv), 6
		if n < 0 {
			dst = append(dst, '-')
			n, width = -n, 5
		}
		var buf [10]byte
		digits := strconv.AppendInt(buf[:0], n, 10)
		for i := len(digits); i < width; i++ {
			dst = append(dst, '0')
		}
		return append(dst, digits...)
	case OID:
		dst = append(dst, '@')
		return strconv.AppendUint(dst, uint64(vv), 10)
	case *Tuple:
		dst = append(dst, '(')
		for i, n := range vv.names {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = append(dst, n...)
			dst = append(dst, '=')
			dst = c.appendText(dst, vv.vals[i])
		}
		return append(dst, ')')
	case *Set:
		seq, ordered := c.seqs[vv]
		mark := len(c.stack)
		if !ordered {
			c.stack = append(c.stack, vv.elems...)
			seq = c.stack[mark:]
			c.sort(seq)
		}
		dst = append(dst, '{')
		for i, e := range seq {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = c.appendText(dst, e)
		}
		// Nested sets pushed above mark and may have moved the stack; seq
		// kept the array it was sorted in.
		c.stack = c.stack[:mark]
		return append(dst, '}')
	}
	panic("value.AppendText: unknown kind")
}

// appendQuoted is strconv.AppendQuote with a shortcut for the usual case: a
// string of printable ASCII with nothing to escape is its own quoted form.
func appendQuoted(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(dst, s)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// encoder is a pooled canon plus the text buffer String renders into, so a
// steady stream of results prints without per-call scratch allocations.
type encoder struct {
	canon
	text []byte
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// release drops every reference the pass took and returns e to the pool.
func (e *encoder) release() {
	clear(e.seqs)
	clear(e.stack[:cap(e.stack)])
	encoders.Put(e)
}

// AppendText appends the canonical text of v — what v.String() returns — to
// dst and returns the extended buffer. Equal values yield equal text.
func AppendText(dst []byte, v Value) []byte {
	e := encoders.Get().(*encoder)
	dst = e.appendText(dst, v)
	e.release()
	return dst
}

// text is String for the composite kinds.
func text(v Value) string {
	e := encoders.Get().(*encoder)
	e.text = e.appendText(e.text[:0], v)
	s := string(e.text)
	e.release()
	return s
}

// atomText is String for the atomic kinds, which need no canon.
func atomText(v Value) string {
	var buf [32]byte
	return string(new(canon).appendText(buf[:0], v))
}
