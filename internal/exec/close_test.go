package exec

import (
	"errors"
	"testing"

	"repro/internal/adl"
	"repro/internal/value"
)

// closeFailOp yields its rows normally and fails on Close — the regression
// shape for the swallowed-Close-error bug in Collect/drain. It is its own
// stream, for one run at a time.
type closeFailOp struct {
	rows    []value.Value
	nextErr error
	closed  int
	pos     int
}

func (o *closeFailOp) Open(*Ctx) (Rows, error) { o.pos = 0; return o, nil }
func (o *closeFailOp) Next() (value.Value, bool, error) {
	if o.nextErr != nil {
		return nil, false, o.nextErr
	}
	if o.pos >= len(o.rows) {
		return nil, false, nil
	}
	row := o.rows[o.pos]
	o.pos++
	return row, true, nil
}
func (o *closeFailOp) Close() error {
	o.closed++
	return errors.New("close failed")
}

func TestCollectPropagatesCloseError(t *testing.T) {
	op := &closeFailOp{rows: []value.Value{value.Int(1)}}
	_, err := Collect(op, &Ctx{})
	if err == nil || err.Error() != "close failed" {
		t.Fatalf("Collect swallowed the Close error: %v", err)
	}
	if op.closed != 1 {
		t.Fatalf("Close called %d times", op.closed)
	}
}

func TestCollectPrefersIterationError(t *testing.T) {
	nextErr := errors.New("next failed")
	op := &closeFailOp{nextErr: nextErr}
	_, err := Collect(op, &Ctx{})
	if !errors.Is(err, nextErr) {
		t.Fatalf("iteration error masked by Close error: %v", err)
	}
}

// TestDrainPropagatesCloseError exercises drain through an operator that
// drains its children eagerly: a child whose Close fails must fail the
// join's Open.
func TestDrainPropagatesCloseError(t *testing.T) {
	child := &closeFailOp{rows: []value.Value{value.NewTuple("a", value.Int(1))}}
	j := &NLJoin{
		Kind: adl.Inner,
		L:    &closeFailOp{rows: nil},
		R:    child,
		LVar: "x", RVar: "y",
		Pred: NewScalar(adl.CBool(true), "x", "y"),
	}
	if _, err := j.Open(&Ctx{}); err == nil {
		t.Fatal("NLJoin.Open swallowed a child Close error")
	}
}
