package exec

import (
	"repro/internal/adl"
	"repro/internal/col"
	"repro/internal/value"
)

// VecScan produces an extent in batches over a columnar projection. Against
// a ColumnarDB provider the projection is served snapshot-pinned and cached
// by the store; otherwise the extent is fetched with Table and decoded here.
type VecScan struct {
	Extent string
	// Attrs are the attributes the pipeline above reads columnar; the
	// planner accumulates them while building the pipeline.
	Attrs []string
	// Batch is the number of rows per batch; non-positive falls back to
	// DefaultBatchSize, which the planner writes. Tests set small sizes to
	// cross batch boundaries.
	Batch int
}

// OpenVec obtains the projection.
func (s VecScan) OpenVec(ctx *Ctx) (Batches, error) {
	size := s.Batch
	if size <= 0 {
		size = DefaultBatchSize
	}
	if cdb, ok := ctx.DB.(ColumnarDB); ok {
		proj, err := cdb.ColProj(s.Extent, s.Attrs)
		if err != nil {
			return nil, err
		}
		return &scanned{proj: proj, size: size}, nil
	}
	set, err := ctx.DB.Table(s.Extent)
	if err != nil {
		return nil, err
	}
	return &scanned{proj: col.New(s.Extent, set.Elems(), s.Attrs), size: size}, nil
}

// scanned is the stream of a VecScan: the projection in runs of size rows.
// The selection vector is one reused buffer.
type scanned struct {
	proj *col.Proj
	size int
	pos  int
	sel  []int32
}

// NextBatch yields the next run of rows with a dense selection vector.
func (s *scanned) NextBatch() (Batch, bool, error) {
	n := min(s.proj.Len()-s.pos, s.size)
	if n <= 0 {
		return Batch{}, false, nil
	}
	if cap(s.sel) < n {
		s.sel = make([]int32, n)
	}
	sel := s.sel[:n]
	for i := range sel {
		sel[i] = int32(s.pos + i)
	}
	s.pos += n
	return Batch{Proj: s.proj, Sel: sel}, true, nil
}

// CloseVec has nothing to release (the store keeps the projection cached).
func (s *scanned) CloseVec() error { return nil }

// projected is the stream of a VecScan as the exchange sees it: the exchange
// claims row ranges from the projection directly instead of calling NextBatch.
type projected interface {
	Batches
	projection() *col.Proj
}

func (s *scanned) projection() *col.Proj { return s.proj }

// VecCmp is one compiled filter conjunct: column-versus-constant or
// column-versus-column comparison. The typed kernels run only when the
// column kinds line up exactly with the reference semantics (evalCmp); any
// other shape evaluates Pred row-wise through the interpreter, so results
// and errors match the scalar Filter bit for bit.
type VecCmp struct {
	Attr string
	Op   adl.CmpOp
	// Const is the right operand for column-vs-constant kernels; when nil,
	// RAttr names the right column.
	Const value.Value
	RAttr string
	// Pred is the conjunct's scalar form (over the filter's Var), the
	// row-wise fallback.
	Pred Scalar
}

// VecFilter narrows each batch's selection vector in place, one conjunct at
// a time — conjunct order matches the scalar And's left-to-right
// short-circuit, so rows are eliminated (and errors surface) in the same
// order as the reference arm.
type VecFilter struct {
	Src     VecOp
	Var     string
	Kernels []VecCmp
}

// OpenVec opens the source.
func (f VecFilter) OpenVec(ctx *Ctx) (Batches, error) {
	src, err := ctx.openVec(f.Src)
	if err != nil {
		return nil, err
	}
	return &filtered{ctx: ctx, src: src, kernels: f.Kernels}, nil
}

// filtered is the stream of a VecFilter.
type filtered struct {
	ctx     *Ctx
	src     Batches
	kernels []VecCmp
}

// NextBatch yields the source's next batch with the selection narrowed.
func (f *filtered) NextBatch() (Batch, bool, error) {
	for {
		b, ok, err := f.src.NextBatch()
		if err != nil || !ok {
			return Batch{}, false, err
		}
		for ki := range f.kernels {
			if b.Sel, err = f.kernels[ki].apply(f.ctx, b.Proj, b.Sel); err != nil {
				return Batch{}, false, err
			}
			if len(b.Sel) == 0 {
				break
			}
		}
		if len(b.Sel) > 0 {
			return b, true, nil
		}
	}
}

// CloseVec closes the source.
func (f *filtered) CloseVec() error { return f.src.CloseVec() }

// apply narrows sel to the rows satisfying the conjunct, writing in place.
func (k *VecCmp) apply(ctx *Ctx, p *col.Proj, sel []int32) ([]int32, error) {
	c := p.Col(k.Attr)
	if c == nil || c.Kind() == col.Mixed {
		return k.applyRows(ctx, p, sel)
	}
	if k.Const != nil {
		return k.applyConst(ctx, p, c, sel)
	}
	rc := p.Col(k.RAttr)
	if rc == nil || rc.Kind() == col.Mixed {
		return k.applyRows(ctx, p, sel)
	}
	return k.applyCols(ctx, p, c, rc, sel)
}

// applyRows is the reference fallback: evaluate the conjunct on each
// selected row through the interpreter.
func (k *VecCmp) applyRows(ctx *Ctx, p *col.Proj, sel []int32) ([]int32, error) {
	out := sel[:0]
	for _, i := range sel {
		keep, err := k.Pred.Bool(ctx, p.Row(i))
		if err != nil {
			return nil, err
		}
		if keep {
			out = append(out, i)
		}
	}
	return out, nil
}

// ordered reports whether a column kind supports the ordered comparisons
// (mirrors eval's orderedKind: int, float, string, date).
func ordered(k col.Kind) bool {
	return k == col.Int || k == col.Float || k == col.Str || k == col.Date
}

// applyConst runs the column-vs-constant kernel. A constant of the column's
// kind but no kernel — a set — goes row-wise like an untyped column.
func (k *VecCmp) applyConst(ctx *Ctx, p *col.Proj, c *col.Col, sel []int32) ([]int32, error) {
	if col.KindOf(k.Const.Kind()) != c.Kind() {
		// Cross-kind: Eq is uniformly false, Ne uniformly true
		// (value.Equal never crosses kinds); ordered comparisons error in
		// the interpreter — fall back so the error text matches.
		switch k.Op {
		case adl.Eq:
			return sel[:0], nil
		case adl.Ne:
			return sel, nil
		}
		return k.applyRows(ctx, p, sel)
	}
	if k.Op != adl.Eq && k.Op != adl.Ne && !ordered(c.Kind()) {
		return k.applyRows(ctx, p, sel)
	}
	out := sel[:0]
	switch c.Kind() {
	case col.Int, col.Date, col.OID, col.Bool:
		cv, _ := value.IntBits(k.Const)
		for _, i := range sel {
			if cmpInt64(c.Int(i), cv, k.Op) {
				out = append(out, i)
			}
		}
	case col.Float:
		cv := float64(k.Const.(value.Float))
		for _, i := range sel {
			if cmpFloat64(c.Float(i), cv, k.Op) {
				out = append(out, i)
			}
		}
	case col.Str:
		cv := string(k.Const.(value.String))
		for _, i := range sel {
			if cmpString(c.Str(i), cv, k.Op) {
				out = append(out, i)
			}
		}
	default:
		return k.applyRows(ctx, p, sel)
	}
	return out, nil
}

// applyCols runs the column-vs-column kernel.
func (k *VecCmp) applyCols(ctx *Ctx, p *col.Proj, l, r *col.Col, sel []int32) ([]int32, error) {
	if l.Kind() != r.Kind() {
		switch k.Op {
		case adl.Eq:
			return sel[:0], nil
		case adl.Ne:
			return sel, nil
		}
		return k.applyRows(ctx, p, sel)
	}
	if k.Op != adl.Eq && k.Op != adl.Ne && !ordered(l.Kind()) {
		return k.applyRows(ctx, p, sel)
	}
	out := sel[:0]
	switch l.Kind() {
	case col.Int, col.Date, col.OID, col.Bool:
		for _, i := range sel {
			if cmpInt64(l.Int(i), r.Int(i), k.Op) {
				out = append(out, i)
			}
		}
	case col.Float:
		for _, i := range sel {
			if cmpFloat64(l.Float(i), r.Float(i), k.Op) {
				out = append(out, i)
			}
		}
	case col.Str:
		for _, i := range sel {
			if cmpString(l.Str(i), r.Str(i), k.Op) {
				out = append(out, i)
			}
		}
	default:
		return k.applyRows(ctx, p, sel)
	}
	return out, nil
}

func cmpInt64(a, b int64, op adl.CmpOp) bool {
	switch op {
	case adl.Eq:
		return a == b
	case adl.Ne:
		return a != b
	case adl.Lt:
		return a < b
	case adl.Le:
		return a <= b
	case adl.Gt:
		return a > b
	case adl.Ge:
		return a >= b
	}
	return false
}

func cmpFloat64(a, b float64, op adl.CmpOp) bool {
	// Matches evalCmp: Eq/Ne via Go == (NaN ≠ NaN), ordered via
	// value.Compare's natural float order.
	switch op {
	case adl.Eq:
		return a == b
	case adl.Ne:
		return a != b
	case adl.Lt:
		return a < b
	case adl.Le:
		return a <= b
	case adl.Gt:
		return a > b
	case adl.Ge:
		return a >= b
	}
	return false
}

func cmpString(a, b string, op adl.CmpOp) bool {
	switch op {
	case adl.Eq:
		return a == b
	case adl.Ne:
		return a != b
	case adl.Lt:
		return a < b
	case adl.Le:
		return a <= b
	case adl.Gt:
		return a > b
	case adl.Ge:
		return a >= b
	}
	return false
}
