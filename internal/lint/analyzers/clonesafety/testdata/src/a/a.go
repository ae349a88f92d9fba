// Package a is clonesafety testdata: toy operators exercising the three
// violation shapes plus clean counterparts guarding against false positives.
package a

// Ctx and Row stand in for the engine's execution context and row types.
type Ctx struct{}
type Row struct{}

// Op is the row-operator interface, structurally matching exec.Operator.
type Op interface {
	Open(*Ctx) error
	Next() (Row, bool, error)
	Close() error
}

// Good follows the convention: pointer receivers, exported immutable
// config, unexported per-run state, direct operator-typed child field.
type Good struct {
	Attr  string
	Child Op
	pos   int
}

func (g *Good) Open(*Ctx) error          { g.pos = 0; return nil }
func (g *Good) Next() (Row, bool, error) { g.pos++; return Row{}, false, nil }
func (g *Good) Close() error             { return nil }

// ValOp implements the iterator on value receivers while carrying state —
// CloneTree cannot clone it, so all "clones" share pos.
type ValOp struct { // want `value receivers but carries unexported state`
	pos int
}

func (v ValOp) Open(*Ctx) error          { return nil }
func (v ValOp) Next() (Row, bool, error) { return Row{}, false, nil }
func (v ValOp) Close() error             { return nil }

// Union hides its children inside a slice: the clone plan copies the slice
// header and every clone shares the same child operators.
type Union struct {
	Kids []Op // want `holds operators inside`
	idx  int
}

func (u *Union) Open(*Ctx) error          { return nil }
func (u *Union) Next() (Row, bool, error) { return Row{}, false, nil }
func (u *Union) Close() error             { return nil }

// branch is a non-operator struct that holds an operator — burying a child
// one level deeper must still be caught.
type branch struct {
	op Op
}

// Wrapped hides a child inside a config struct.
type Wrapped struct {
	Cfg branch // want `holds operators inside`
}

func (w *Wrapped) Open(*Ctx) error          { return nil }
func (w *Wrapped) Next() (Row, bool, error) { return Row{}, false, nil }
func (w *Wrapped) Close() error             { return nil }

// Meter mutates an exported field at run time: the write lands on shared
// plan-time configuration, racing across clones.
type Meter struct {
	SegmentsUsed int
	rows         int
}

func (m *Meter) Open(*Ctx) error {
	m.SegmentsUsed = 0 // want `writes exported field SegmentsUsed`
	m.rows = 0
	return nil
}

func (m *Meter) Next() (Row, bool, error) {
	m.SegmentsUsed++ // want `writes exported field SegmentsUsed`
	m.rows++
	return Row{}, false, nil
}

func (m *Meter) Close() error { return nil }

// Plan is NOT an operator, so holding operators in containers is fine — it
// is a plan-time description, not a cloned execution node.
type Plan struct {
	Ops []Op
}

// SetAttr is a builder method on an operator called at plan time; it writes
// an exported field, which the analyzer still flags — builders belong on
// config structs or constructors, not on the operator itself.
func (g *Good) SetAttr(a string) {
	g.Attr = a // want `writes exported field Attr`
}

// Scalar stands in for exec.Scalar: plan-time configuration that carries an
// unexported compiled program, built by its constructor and copied into
// clones with the struct.
type Scalar struct {
	Vars []string
	prog func(*Ctx, Row) (Row, error)
}

func NewScalar(vars ...string) Scalar {
	return Scalar{Vars: vars, prog: func(_ *Ctx, r Row) (Row, error) { return r, nil }}
}

// Filter holds compiled scalars by value and by pointer: accepted, the
// program is immutable configuration like the rest of the exported field.
type Filter struct {
	Child    Op
	Pred     Scalar
	Residual *Scalar
	ctx      *Ctx
}

func (f *Filter) Open(ctx *Ctx) error { f.ctx = ctx; return f.Child.Open(ctx) }

func (f *Filter) Next() (Row, bool, error) {
	row, ok, err := f.Child.Next()
	if err != nil || !ok {
		return Row{}, false, err
	}
	row, err = f.Pred.prog(f.ctx, row)
	return row, true, err
}

func (f *Filter) Close() error { return f.Child.Close() }

// Respecialize recompiles a scalar against what a run saw: the closure would
// capture per-run state and every clone shares the field it is stored in.
func (f *Filter) Respecialize(seen Row) {
	f.Pred.prog = func(*Ctx, Row) (Row, error) { return seen, nil }     // want `writes exported field Pred`
	f.Residual.prog = func(*Ctx, Row) (Row, error) { return seen, nil } // want `writes exported field Residual`
	f.Pred.Vars[0] = "x"                                                // want `writes exported field Pred`
}
