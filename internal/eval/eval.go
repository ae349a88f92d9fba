// Package eval is the reference interpreter for ADL: a direct, tuple-at-a-
// time implementation of the semantics rules 1–12 of the paper's §3. Nested
// iterator expressions are executed by nested loops, which makes this
// interpreter both the paper's "naive" execution model (the baseline every
// optimization is measured against) and the semantic oracle every rewrite
// rule and physical operator is validated against.
package eval

import (
	"fmt"

	"repro/internal/adl"
	"repro/internal/value"
)

// DB provides base tables and object dereferencing to the interpreter.
// Both storage.Store and storage.MemDB satisfy it.
type DB interface {
	Table(name string) (*value.Set, error)
	Deref(oid value.OID) (*value.Tuple, error)
}

// Env is an immutable environment binding iteration variables to values. It
// also holds the arguments of a template's parameters (adl.Param), which every
// binding inherits from its parent.
type Env struct {
	name   string
	val    value.Value
	parent *Env
	args   *[]value.Value
}

// Bind returns a new environment extending e with name = v.
func (e *Env) Bind(name string, v value.Value) *Env {
	n := &Env{name: name, val: v, parent: e}
	if e != nil {
		n.args = e.args
	}
	return n
}

// WithArgs returns e with args as the arguments of its parameters: adl.Param
// slot i evaluates to args[i]. It returns e itself when e holds them already.
func (e *Env) WithArgs(args []value.Value) *Env {
	if len(args) == 0 {
		return e
	}
	var n Env
	if e != nil {
		if e.args != nil && len(*e.args) == len(args) && &(*e.args)[0] == &args[0] {
			return e
		}
		n = *e
	}
	n.args = &args
	return &n
}

// Lookup resolves a variable.
func (e *Env) Lookup(name string) (value.Value, bool) {
	for env := e; env != nil; env = env.parent {
		if env.name == name {
			return env.val, true
		}
	}
	return nil, false
}

// Eval evaluates an ADL expression under an environment against a database.
func Eval(e adl.Expr, env *Env, db DB) (value.Value, error) {
	switch n := e.(type) {
	case *adl.Const:
		return n.Val, nil

	case *adl.Var:
		v, ok := env.Lookup(n.Name)
		if !ok {
			return nil, fmt.Errorf("eval: unbound variable %q", n.Name)
		}
		return v, nil

	case *adl.Param:
		var args []value.Value
		if env != nil && env.args != nil {
			args = *env.args
		}
		return Arg(n, args)

	case *adl.Table:
		return db.Table(n.Name)

	case *adl.Field:
		x, err := Eval(n.X, env, db)
		if err != nil {
			return nil, err
		}
		return Field(x, n.Name, db)

	case *adl.TupleExpr:
		vals, err := evalAll(n.Elems, env, db)
		if err != nil {
			return nil, err
		}
		return Tuple(n.Names, vals)

	case *adl.SetExpr:
		s := value.NewSetCap(len(n.Elems))
		for _, el := range n.Elems {
			v, err := Eval(el, env, db)
			if err != nil {
				return nil, err
			}
			s.Add(v)
		}
		return s, nil

	case *adl.Subscript:
		t, err := evalTuple(n.X, env, db, "subscript")
		if err != nil {
			return nil, err
		}
		return t.Subscript(n.Attrs)

	case *adl.ExceptExpr:
		t, err := evalTuple(n.X, env, db, "except")
		if err != nil {
			return nil, err
		}
		vals, err := evalAll(n.Elems, env, db)
		if err != nil {
			return nil, err
		}
		upd, err := Tuple(n.Names, vals)
		if err != nil {
			return nil, err
		}
		return t.Except(upd), nil

	case *adl.Concat:
		l, err := evalTuple(n.L, env, db, "concat")
		if err != nil {
			return nil, err
		}
		r, err := evalTuple(n.R, env, db, "concat")
		if err != nil {
			return nil, err
		}
		return l.Concat(r)

	case *adl.Cmp:
		l, err := Eval(n.L, env, db)
		if err != nil {
			return nil, err
		}
		r, err := Eval(n.R, env, db)
		if err != nil {
			return nil, err
		}
		return Cmp(n.Op, l, r)

	case *adl.Arith:
		l, err := Eval(n.L, env, db)
		if err != nil {
			return nil, err
		}
		r, err := Eval(n.R, env, db)
		if err != nil {
			return nil, err
		}
		return Arith(n.Op, l, r)

	case *adl.Not:
		b, err := evalBool(n.X, env, db, "¬")
		if err != nil {
			return nil, err
		}
		return value.Bool(!b), nil

	case *adl.And:
		l, err := evalBool(n.L, env, db, "∧")
		if err != nil {
			return nil, err
		}
		if !l {
			return value.Bool(false), nil
		}
		r, err := evalBool(n.R, env, db, "∧")
		if err != nil {
			return nil, err
		}
		return value.Bool(r), nil

	case *adl.Or:
		l, err := evalBool(n.L, env, db, "∨")
		if err != nil {
			return nil, err
		}
		if l {
			return value.Bool(true), nil
		}
		r, err := evalBool(n.R, env, db, "∨")
		if err != nil {
			return nil, err
		}
		return value.Bool(r), nil

	case *adl.SetOp:
		l, err := evalSet(n.L, env, db, n.Op.String())
		if err != nil {
			return nil, err
		}
		r, err := evalSet(n.R, env, db, n.Op.String())
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case adl.Union:
			return l.Union(r), nil
		case adl.Intersect:
			return l.Intersect(r), nil
		case adl.Diff:
			return l.Diff(r), nil
		}
		return nil, fmt.Errorf("eval: unknown set operator")

	case *adl.Flatten:
		s, err := evalSet(n.X, env, db, "flatten")
		if err != nil {
			return nil, err
		}
		return s.Flatten()

	case *adl.Map:
		src, err := evalSet(n.Src, env, db, "α")
		if err != nil {
			return nil, err
		}
		out := value.NewSetCap(src.Len())
		for _, x := range src.Elems() {
			v, err := Eval(n.Body, env.Bind(n.Var, x), db)
			if err != nil {
				return nil, err
			}
			out.Add(v)
		}
		return out, nil

	case *adl.Select:
		src, err := evalSet(n.Src, env, db, "σ")
		if err != nil {
			return nil, err
		}
		out := value.NewSetCap(src.Len())
		for _, x := range src.Elems() {
			keep, err := evalBool(n.Pred, env.Bind(n.Var, x), db, "σ predicate")
			if err != nil {
				return nil, err
			}
			if keep {
				out.Add(x)
			}
		}
		return out, nil

	case *adl.Project:
		src, err := evalSet(n.X, env, db, "π")
		if err != nil {
			return nil, err
		}
		out := value.NewSetCap(src.Len())
		for _, x := range src.Elems() {
			t, ok := x.(*value.Tuple)
			if !ok {
				return nil, fmt.Errorf("eval: π over non-tuple element %v", x)
			}
			p, err := t.Subscript(n.Attrs)
			if err != nil {
				return nil, err
			}
			out.Add(p)
		}
		return out, nil

	case *adl.Unnest:
		return evalUnnest(n, env, db)

	case *adl.Nest:
		return evalNest(n, env, db)

	case *adl.Join:
		return evalJoin(n, env, db)

	case *adl.Quant:
		src, err := evalSet(n.Src, env, db, n.Kind.String())
		if err != nil {
			return nil, err
		}
		for _, x := range src.Elems() {
			ok, err := evalBool(n.Pred, env.Bind(n.Var, x), db, "quantifier predicate")
			if err != nil {
				return nil, err
			}
			if n.Kind == adl.Exists && ok {
				return value.Bool(true), nil
			}
			if n.Kind == adl.Forall && !ok {
				return value.Bool(false), nil
			}
		}
		// ∃ over the empty range is false; ∀ over the empty range is true.
		return value.Bool(n.Kind == adl.Forall), nil

	case *adl.Agg:
		s, err := evalSet(n.X, env, db, n.Op.String())
		if err != nil {
			return nil, err
		}
		return Agg(n.Op, s)

	case *adl.Materialize:
		return evalMaterialize(n, env, db)

	case *adl.Let:
		v, err := Eval(n.Val, env, db)
		if err != nil {
			return nil, err
		}
		return Eval(n.Body, env.Bind(n.Var, v), db)
	}
	return nil, fmt.Errorf("eval: unknown expression %T", e)
}

// EvalSet evaluates e and requires a set result (e.g. a whole query).
func EvalSet(e adl.Expr, env *Env, db DB) (*value.Set, error) {
	v, err := Eval(e, env, db)
	if err != nil {
		return nil, err
	}
	s, ok := v.(*value.Set)
	if !ok {
		return nil, fmt.Errorf("eval: expected set result, got %s", v.Kind())
	}
	return s, nil
}

// The functions from here to Agg are the value-level semantics of the scalar
// operators: one definition, with its error text, shared by Eval above and by
// the compiled scalars of package exec.

// Arg is the value of parameter p in a run with the arguments args.
func Arg(p *adl.Param, args []value.Value) (value.Value, error) {
	if p.Slot < len(args) {
		return args[p.Slot], nil
	}
	return nil, fmt.Errorf("eval: no argument for parameter %s", p)
}

// Field is x.name, following x through the object store if it is an oid
// (implicit pointer navigation along path expressions).
func Field(x value.Value, name string, db DB) (value.Value, error) {
	if oid, ok := x.(value.OID); ok {
		obj, err := db.Deref(oid)
		if err != nil {
			return nil, err
		}
		x = obj
	}
	t, ok := x.(*value.Tuple)
	if !ok {
		return nil, fmt.Errorf("eval: field access .%s on %s", name, x.Kind())
	}
	v, ok := t.Get(name)
	if !ok {
		return nil, fmt.Errorf("eval: tuple %v has no attribute %q", t, name)
	}
	return v, nil
}

// Tuple is the tuple constructor ⟨names[i] = vals[i]⟩.
func Tuple(names []string, vals []value.Value) (*value.Tuple, error) {
	shape, err := value.ShapeOf(names)
	if err != nil {
		return nil, err
	}
	t, slots := shape.Alloc()
	copy(slots, vals)
	return t, nil
}

// Cmp applies a comparison operator.
func Cmp(op adl.CmpOp, l, r value.Value) (value.Value, error) {
	switch op {
	case adl.Eq:
		return value.Bool(value.Equal(l, r)), nil
	case adl.Ne:
		return value.Bool(!value.Equal(l, r)), nil
	case adl.Lt, adl.Le, adl.Gt, adl.Ge:
		if l.Kind() != r.Kind() || !orderedKind(l.Kind()) {
			return nil, fmt.Errorf("eval: ordered comparison %s on %s and %s", op, l.Kind(), r.Kind())
		}
		if value.IsNaN(l) || value.IsNaN(r) {
			// IEEE order, as the column kernels compare: NaN is unordered.
			return value.Bool(false), nil
		}
		c := value.Compare(l, r)
		switch op {
		case adl.Lt:
			return value.Bool(c < 0), nil
		case adl.Le:
			return value.Bool(c <= 0), nil
		case adl.Gt:
			return value.Bool(c > 0), nil
		default:
			return value.Bool(c >= 0), nil
		}
	case adl.In:
		rs, ok := r.(*value.Set)
		if !ok {
			return nil, fmt.Errorf("eval: ∈ requires a set right operand, got %s", r.Kind())
		}
		return value.Bool(rs.Contains(l)), nil
	case adl.Has:
		ls, ok := l.(*value.Set)
		if !ok {
			return nil, fmt.Errorf("eval: ∋ requires a set left operand, got %s", l.Kind())
		}
		return value.Bool(ls.Contains(r)), nil
	case adl.Sub, adl.SubEq, adl.Sup, adl.SupEq:
		ls, ok1 := l.(*value.Set)
		rs, ok2 := r.(*value.Set)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("eval: %s requires set operands, got %s and %s", op, l.Kind(), r.Kind())
		}
		switch op {
		case adl.Sub:
			return value.Bool(ls.ProperSubsetOf(rs)), nil
		case adl.SubEq:
			return value.Bool(ls.SubsetOf(rs)), nil
		case adl.Sup:
			return value.Bool(rs.ProperSubsetOf(ls)), nil
		default:
			return value.Bool(rs.SubsetOf(ls)), nil
		}
	}
	return nil, fmt.Errorf("eval: unknown comparison operator")
}

func orderedKind(k value.Kind) bool {
	switch k {
	case value.KindInt, value.KindFloat, value.KindString, value.KindDate:
		return true
	}
	return false
}

// Arith applies an arithmetic operator.
func Arith(op adl.ArithOp, l, r value.Value) (value.Value, error) {
	if li, ok := l.(value.Int); ok {
		ri, ok := r.(value.Int)
		if !ok {
			return nil, fmt.Errorf("eval: arithmetic on int and %s", r.Kind())
		}
		switch op {
		case adl.Add:
			return li + ri, nil
		case adl.Subtract:
			return li - ri, nil
		case adl.Mul:
			return li * ri, nil
		case adl.Div:
			if ri == 0 {
				return nil, fmt.Errorf("eval: integer division by zero")
			}
			return li / ri, nil
		}
	}
	if lf, ok := l.(value.Float); ok {
		rf, ok := r.(value.Float)
		if !ok {
			return nil, fmt.Errorf("eval: arithmetic on float and %s", r.Kind())
		}
		switch op {
		case adl.Add:
			return lf + rf, nil
		case adl.Subtract:
			return lf - rf, nil
		case adl.Mul:
			return lf * rf, nil
		case adl.Div:
			if rf == 0 {
				return nil, fmt.Errorf("eval: division by zero")
			}
			return lf / rf, nil
		}
	}
	return nil, fmt.Errorf("eval: arithmetic on %s", l.Kind())
}

// evalUnnest implements semantics rule 7:
// μ_a(e) = {x′ ∘ x[b1,...,bm] | x ∈ e ∧ x′ ∈ x.a}.
// Tuples whose set-valued attribute is empty contribute nothing — the
// dangling-tuple loss at the heart of the Complex Object bug.
func evalUnnest(n *adl.Unnest, env *Env, db DB) (value.Value, error) {
	src, err := evalSet(n.X, env, db, "μ")
	if err != nil {
		return nil, err
	}
	out := value.NewSetCap(src.Len())
	for _, xv := range src.Elems() {
		x, ok := xv.(*value.Tuple)
		if !ok {
			return nil, fmt.Errorf("eval: μ over non-tuple element %v", xv)
		}
		av, ok := x.Get(n.Attr)
		if !ok {
			return nil, fmt.Errorf("eval: μ on missing attribute %q", n.Attr)
		}
		as, ok := av.(*value.Set)
		if !ok {
			return nil, fmt.Errorf("eval: μ on non-set attribute %q (%s)", n.Attr, av.Kind())
		}
		rest := x.Drop([]string{n.Attr})
		for _, inner := range as.Elems() {
			it, ok := inner.(*value.Tuple)
			if !ok {
				return nil, fmt.Errorf("eval: μ element of %q is not a tuple: %v", n.Attr, inner)
			}
			cat, err := it.Concat(rest)
			if err != nil {
				return nil, err
			}
			out.Add(cat)
		}
	}
	return out, nil
}

// evalNest implements semantics rule 8: ν_{A→a}(e) groups e by the
// attributes B = SCH(e) − A and collects each group's A-subtuples.
func evalNest(n *adl.Nest, env *Env, db DB) (value.Value, error) {
	src, err := evalSet(n.X, env, db, "ν")
	if err != nil {
		return nil, err
	}
	type group struct {
		key     *value.Tuple
		members *value.Set
	}
	var groups []*group
	index := map[uint64][]int{}
	for _, xv := range src.Elems() {
		x, ok := xv.(*value.Tuple)
		if !ok {
			return nil, fmt.Errorf("eval: ν over non-tuple element %v", xv)
		}
		sub, err := x.Subscript(n.Attrs)
		if err != nil {
			return nil, err
		}
		key := x.Drop(n.Attrs)
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
	out := value.NewSetCap(len(groups))
	for _, g := range groups {
		w, err := g.key.With(n.As, g.members)
		if err != nil {
			return nil, err
		}
		out.Add(w)
	}
	return out, nil
}

// evalJoin implements semantics rules 10–12, Definition 1 (nestjoin) and the
// left outer join, all by nested loops.
func evalJoin(n *adl.Join, env *Env, db DB) (value.Value, error) {
	l, err := evalSet(n.L, env, db, "join")
	if err != nil {
		return nil, err
	}
	r, err := evalSet(n.R, env, db, "join")
	if err != nil {
		return nil, err
	}
	out := value.NewSetCap(l.Len())
	// nullPad is the all-null tuple over R's attributes, used by outer joins.
	var nullPad *value.Tuple
	if n.Kind == adl.Outer {
		nullPad = value.EmptyTuple()
		if len(r.Elems()) > 0 {
			if rt, ok := r.Elems()[0].(*value.Tuple); ok {
				nullPad = value.NullTuple(rt.Shape)
			}
		}
	}
	for _, lv := range l.Elems() {
		lt, ok := lv.(*value.Tuple)
		if !ok {
			return nil, fmt.Errorf("eval: join over non-tuple element %v", lv)
		}
		matched := false
		var nestSet *value.Set
		if n.Kind == adl.NestJ {
			nestSet = value.EmptySet()
		}
		for _, rv := range r.Elems() {
			benv := env.Bind(n.LVar, lv).Bind(n.RVar, rv)
			ok, err := evalBool(n.On, benv, db, "join predicate")
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			matched = true
			switch n.Kind {
			case adl.Inner, adl.Outer:
				rt, isT := rv.(*value.Tuple)
				if !isT {
					return nil, fmt.Errorf("eval: join over non-tuple element %v", rv)
				}
				cat, err := lt.Concat(rt)
				if err != nil {
					return nil, err
				}
				out.Add(cat)
			case adl.Semi:
				out.Add(lv)
			case adl.NestJ:
				member := rv
				if n.RFun != nil {
					member, err = Eval(n.RFun, benv, db)
					if err != nil {
						return nil, err
					}
				}
				nestSet.Add(member)
			}
			if n.Kind == adl.Semi || n.Kind == adl.Anti {
				break // the verdict is known
			}
		}
		switch n.Kind {
		case adl.Anti:
			if !matched {
				out.Add(lv)
			}
		case adl.NestJ:
			// Dangling left tuples are preserved with an empty set — exactly
			// what distinguishes the nestjoin from join-then-nest.
			w, err := lt.With(n.As, nestSet)
			if err != nil {
				return nil, err
			}
			out.Add(w)
		case adl.Outer:
			if !matched {
				cat, err := lt.Concat(nullPad)
				if err != nil {
					return nil, err
				}
				out.Add(cat)
			}
		}
	}
	return out, nil
}

// Agg applies an aggregate to a set.
func Agg(op adl.AggOp, s *value.Set) (value.Value, error) {
	if op == adl.Count {
		return value.Int(int64(s.Len())), nil
	}
	if s.Len() == 0 {
		if op == adl.Sum {
			return value.Int(0), nil
		}
		return nil, fmt.Errorf("eval: %s over empty set", op)
	}
	elems := s.Elems()
	switch op {
	case adl.Min, adl.Max:
		best := elems[0]
		if !orderedKind(best.Kind()) {
			return nil, fmt.Errorf("eval: %s over non-ordered elements", op)
		}
		for _, e := range elems[1:] {
			if e.Kind() != best.Kind() {
				return nil, fmt.Errorf("eval: %s over mixed kinds", op)
			}
			c := value.Compare(e, best)
			if (op == adl.Min && c < 0) || (op == adl.Max && c > 0) {
				best = e
			}
		}
		return best, nil
	case adl.Sum, adl.Avg:
		switch elems[0].(type) {
		case value.Int:
			var total int64
			for _, e := range elems {
				i, ok := e.(value.Int)
				if !ok {
					return nil, fmt.Errorf("eval: %s over mixed kinds", op)
				}
				total += int64(i)
			}
			if op == adl.Sum {
				return value.Int(total), nil
			}
			return value.Float(float64(total) / float64(len(elems))), nil
		case value.Float:
			var total float64
			for _, e := range elems {
				f, ok := e.(value.Float)
				if !ok {
					return nil, fmt.Errorf("eval: %s over mixed kinds", op)
				}
				total += float64(f)
			}
			if op == adl.Sum {
				return value.Float(total), nil
			}
			return value.Float(total / float64(len(elems))), nil
		}
		return nil, fmt.Errorf("eval: %s over non-numeric elements", op)
	}
	return nil, fmt.Errorf("eval: unknown aggregate")
}

// evalMaterialize dereferences the oid-valued attribute Attr of every tuple
// of X and extends the tuple with the referenced object(s) as attribute As.
// A scalar oid attribute yields the single object; a set-valued attribute of
// unary oid tuples (the schema mapping of set-of-reference attributes)
// yields the set of objects.
func evalMaterialize(n *adl.Materialize, env *Env, db DB) (value.Value, error) {
	src, err := evalSet(n.X, env, db, "materialize")
	if err != nil {
		return nil, err
	}
	out := value.NewSetCap(src.Len())
	for _, xv := range src.Elems() {
		x, ok := xv.(*value.Tuple)
		if !ok {
			return nil, fmt.Errorf("eval: materialize over non-tuple element %v", xv)
		}
		av, ok := x.Get(n.Attr)
		if !ok {
			return nil, fmt.Errorf("eval: materialize on missing attribute %q", n.Attr)
		}
		switch ref := av.(type) {
		case value.OID:
			obj, err := db.Deref(ref)
			if err != nil {
				return nil, err
			}
			w, err := x.With(n.As, obj)
			if err != nil {
				return nil, err
			}
			out.Add(w)
		case *value.Set:
			objs := value.NewSetCap(ref.Len())
			for _, el := range ref.Elems() {
				oid, err := refOID(el)
				if err != nil {
					return nil, err
				}
				obj, err := db.Deref(oid)
				if err != nil {
					return nil, err
				}
				objs.Add(obj)
			}
			w, err := x.With(n.As, objs)
			if err != nil {
				return nil, err
			}
			out.Add(w)
		default:
			return nil, fmt.Errorf("eval: materialize on non-reference attribute %q (%s)", n.Attr, av.Kind())
		}
	}
	return out, nil
}

// refOID extracts the oid from a reference-set element: either a bare oid or
// a unary tuple holding one.
func refOID(el value.Value) (value.OID, error) {
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
	return 0, fmt.Errorf("eval: reference element %v is not an oid", el)
}

func evalAll(es []adl.Expr, env *Env, db DB) ([]value.Value, error) {
	vals := make([]value.Value, len(es))
	for i, e := range es {
		v, err := Eval(e, env, db)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

func evalSet(e adl.Expr, env *Env, db DB, op string) (*value.Set, error) {
	v, err := Eval(e, env, db)
	if err != nil {
		return nil, err
	}
	return AsSet(v, op)
}

func evalTuple(e adl.Expr, env *Env, db DB, op string) (*value.Tuple, error) {
	v, err := Eval(e, env, db)
	if err != nil {
		return nil, err
	}
	return AsTuple(v, db, op)
}

func evalBool(e adl.Expr, env *Env, db DB, op string) (bool, error) {
	v, err := Eval(e, env, db)
	if err != nil {
		return false, err
	}
	return AsBool(v, op)
}

// AsSet requires v, an operand of op, to be a set.
func AsSet(v value.Value, op string) (*value.Set, error) {
	s, ok := v.(*value.Set)
	if !ok {
		return nil, fmt.Errorf("eval: %s requires a set operand, got %s", op, v.Kind())
	}
	return s, nil
}

// AsTuple requires v, an operand of op, to be a tuple or an oid, which is
// followed (implicit pointer navigation also applies to tuple positions).
func AsTuple(v value.Value, db DB, op string) (*value.Tuple, error) {
	if oid, ok := v.(value.OID); ok {
		return db.Deref(oid)
	}
	t, ok := v.(*value.Tuple)
	if !ok {
		return nil, fmt.Errorf("eval: %s requires a tuple operand, got %s", op, v.Kind())
	}
	return t, nil
}

// AsBool requires v, an operand of op, to be a boolean.
func AsBool(v value.Value, op string) (bool, error) {
	b, ok := v.(value.Bool)
	if !ok {
		return false, fmt.Errorf("eval: %s requires a boolean, got %s", op, v.Kind())
	}
	return bool(b), nil
}
