package exec

import (
	"reflect"
	"sync"
)

// CloneTree returns a fresh copy of an operator tree that can be Opened and
// drained independently of the original — the mechanism behind a prepared-
// plan cache: one planned tree is cached, and every execution runs a clone,
// so concurrent requests never share iterator state.
//
// The copy relies on a structural convention every operator in this package
// follows: exported struct fields are immutable configuration fixed at plan
// time (child operators, Scalar programs, table and attribute names),
// unexported fields are per-run iterator state created by Open and
// abandoned by Close. CloneTree copies the exported configuration — cloning
// recursively through any field that holds an Operator or a VecOp — and
// leaves the unexported state zero, which is exactly the state a freshly
// constructed operator has. A non-pointer or non-struct Operator
// implementation is returned as-is (it has no per-run state to share).
//
// The field walk is driven by a memoized per-type clone plan: the first
// clone of each operator type computes which field indices to copy and
// which need the child-dispatch, and every later clone replays the plan
// without re-reading struct tags and visibility through reflect.
func CloneTree(op Operator) Operator {
	if op == nil {
		return nil
	}
	return mirror(op, CloneTree).(Operator)
}

// CloneVecTree is CloneTree for batch pipelines.
func CloneVecTree(op VecOp) VecOp {
	if op == nil {
		return nil
	}
	return mirror(op, CloneTree).(VecOp)
}

// cloneStep is one exported field of a clone plan. Dynamic fields can hold
// an Operator or VecOp child (interface-typed fields, or concrete types
// implementing either) and dispatch on the value at clone time; the rest
// are copied directly.
type cloneStep struct {
	idx     int
	dynamic bool
}

var (
	operatorType = reflect.TypeOf((*Operator)(nil)).Elem()
	vecOpType    = reflect.TypeOf((*VecOp)(nil)).Elem()

	clonePlans sync.Map // reflect.Type → []cloneStep
)

// planFor returns the memoized clone plan of a struct type.
func planFor(t reflect.Type) []cloneStep {
	if p, ok := clonePlans.Load(t); ok {
		return p.([]cloneStep)
	}
	steps := make([]cloneStep, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue // per-run iterator state: stays zero in the clone
		}
		dyn := f.Type.Kind() == reflect.Interface ||
			f.Type.Implements(operatorType) || f.Type.Implements(vecOpType)
		steps = append(steps, cloneStep{idx: i, dynamic: dyn})
	}
	p, _ := clonePlans.LoadOrStore(t, steps)
	return p.([]cloneStep)
}

// mirror copies one pointer-to-struct node by its plan. Operator children
// are replaced by opChild's image of them — CloneTree itself for a plain
// copy, a counting copy for Instrument — and VecOp children always by their
// CloneVecTree, so every walk over a plan gives batch operators per-run
// state of their own.
func mirror(x any, opChild func(Operator) Operator) any {
	v := reflect.ValueOf(x)
	if v.Kind() != reflect.Pointer || v.IsNil() || v.Elem().Kind() != reflect.Struct {
		return x
	}
	src := v.Elem()
	t := src.Type()
	dst := reflect.New(t)
	de := dst.Elem()
	for _, st := range planFor(t) {
		fv := src.Field(st.idx)
		if st.dynamic {
			var cl any
			switch child := fv.Interface().(type) {
			case Operator:
				cl = opChild(child)
			case VecOp:
				cl = CloneVecTree(child)
			}
			if cl != nil {
				de.Field(st.idx).Set(reflect.ValueOf(cl))
				continue
			}
		}
		de.Field(st.idx).Set(fv)
	}
	return dst.Interface()
}
