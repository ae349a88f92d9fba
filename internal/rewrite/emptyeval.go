package rewrite

import (
	"repro/internal/adl"
	"repro/internal/value"
)

// TV is a three-valued static truth value used by the Table 3 analysis.
type TV uint8

// Truth values: statically false, statically true, or run-time dependent
// (the paper's "?" entries in Table 3).
const (
	TVUnknown TV = iota
	TVFalse
	TVTrue
)

func (t TV) String() string {
	switch t {
	case TVFalse:
		return "false"
	case TVTrue:
		return "true"
	}
	return "?"
}

// ReduceWithEmpty substitutes the empty set for the subquery expression
// target inside pred and statically reduces the result. This is the paper's
// §5.2.2 analysis: "the value of the expression P(x, ∅) … determines whether
// or not dangling tuples should be included into the result". Unnesting by
// grouping is guaranteed correct only when the result is TVFalse (dangling
// tuples contribute nothing); TVTrue means every dangling tuple belongs in
// the result (all are lost — the Complex Object bug); TVUnknown means the
// decision is run-time dependent.
func ReduceWithEmpty(pred, target adl.Expr) TV {
	p := replaceExpr(pred, target, adl.C(value.EmptySet()))
	return Reduce(p)
}

// Reduce statically evaluates a boolean expression to a three-valued truth
// value. It understands quantifiers and comparisons against statically empty
// sets, count of the empty set, and Kleene boolean algebra; everything else
// is unknown.
func Reduce(e adl.Expr) TV {
	switch n := e.(type) {
	case *adl.Const:
		if b, ok := n.Val.(value.Bool); ok {
			if bool(b) {
				return TVTrue
			}
			return TVFalse
		}
		return TVUnknown

	case *adl.Not:
		switch Reduce(n.X) {
		case TVTrue:
			return TVFalse
		case TVFalse:
			return TVTrue
		}
		return TVUnknown

	case *adl.And:
		l, r := Reduce(n.L), Reduce(n.R)
		switch {
		case l == TVFalse || r == TVFalse:
			return TVFalse
		case l == TVTrue && r == TVTrue:
			return TVTrue
		}
		return TVUnknown

	case *adl.Or:
		l, r := Reduce(n.L), Reduce(n.R)
		switch {
		case l == TVTrue || r == TVTrue:
			return TVTrue
		case l == TVFalse && r == TVFalse:
			return TVFalse
		}
		return TVUnknown

	case *adl.Quant:
		if staticallyEmptySet(n.Src) {
			// ∃ over ∅ is false; ∀ over ∅ is true.
			if n.Kind == adl.Exists {
				return TVFalse
			}
			return TVTrue
		}
		return TVUnknown

	case *adl.Cmp:
		return reduceCmp(n)
	}
	return TVUnknown
}

// reduceCmp reduces comparisons with statically-known operands; the set
// comparator rows reproduce the paper's Table 3.
func reduceCmp(n *adl.Cmp) TV {
	l := foldConst(n.L)
	r := foldConst(n.R)
	lEmpty := staticallyEmptySet(l)
	rEmpty := staticallyEmptySet(r)
	lc, lIsConst := l.(*adl.Const)
	rc, rIsConst := r.(*adl.Const)

	switch n.Op {
	case adl.Eq:
		if lIsConst && rIsConst {
			if value.Equal(lc.Val, rc.Val) {
				return TVTrue
			}
			return TVFalse
		}
		// x.c = ∅ is run-time dependent (Table 3).
		return TVUnknown
	case adl.Ne:
		if lIsConst && rIsConst {
			if value.Equal(lc.Val, rc.Val) {
				return TVFalse
			}
			return TVTrue
		}
		return TVUnknown
	case adl.In:
		if rEmpty {
			return TVFalse // nothing is a member of ∅
		}
	case adl.Sub:
		if rEmpty {
			return TVFalse // x.c ⊂ ∅ is false (Table 3)
		}
		if lEmpty && !rEmpty && rIsConst {
			return TVTrue // ∅ ⊂ nonempty-constant
		}
	case adl.SubEq:
		if lEmpty {
			return TVTrue // ∅ ⊆ anything
		}
		// x.c ⊆ ∅ is run-time dependent (true iff x.c = ∅; Table 3).
	case adl.Sup:
		if lEmpty {
			return TVFalse // ∅ ⊃ anything is false
		}
		// x.c ⊃ ∅ is run-time dependent (true iff x.c ≠ ∅; Table 3).
	case adl.SupEq:
		if rEmpty {
			return TVTrue // x.c ⊇ ∅ (Table 3)
		}
		if lEmpty {
			return TVUnknown // ∅ ⊇ r: true iff r = ∅
		}
	case adl.Has:
		if lEmpty {
			return TVFalse // ∅ contains nothing
		}
		// x.c ∋ ∅ is run-time dependent (Table 3).
	case adl.Lt, adl.Le, adl.Gt, adl.Ge:
		if lIsConst && rIsConst && lc.Val.Kind() == rc.Val.Kind() {
			if value.IsNaN(lc.Val) || value.IsNaN(rc.Val) {
				return TVFalse // IEEE order, as eval.Cmp: NaN is unordered
			}
			c := value.Compare(lc.Val, rc.Val)
			switch n.Op {
			case adl.Lt:
				return boolTV(c < 0)
			case adl.Le:
				return boolTV(c <= 0)
			case adl.Gt:
				return boolTV(c > 0)
			case adl.Ge:
				return boolTV(c >= 0)
			}
		}
	}
	return TVUnknown
}

func boolTV(b bool) TV {
	if b {
		return TVTrue
	}
	return TVFalse
}

// foldConst performs the small constant folding the analysis needs:
// aggregates over statically empty sets and empty set constructors.
func foldConst(e adl.Expr) adl.Expr {
	switch n := e.(type) {
	case *adl.SetExpr:
		if len(n.Elems) == 0 {
			return adl.C(value.EmptySet())
		}
	case *adl.Agg:
		if staticallyEmptySet(foldConst(n.X)) {
			switch n.Op {
			case adl.Count:
				return adl.CInt(0)
			case adl.Sum:
				return adl.CInt(0)
			}
		}
	}
	return e
}
