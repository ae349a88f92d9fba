package adl

import (
	"fmt"
	"strings"
)

// The printer renders expressions in the paper's notation (σ, α, π, μ, ν,
// joins, quantifiers). Binary scalar operators are parenthesized liberally
// rather than by precedence: printed expressions are for humans reading
// rewrite traces, not for re-parsing.

func (e *Const) String() string { return e.Val.String() }
func (e *Var) String() string   { return e.Name }
func (e *Table) String() string { return e.Name }
func (e *Field) String() string { return fmt.Sprintf("%s.%s", e.X, e.Name) }

func (e *TupleExpr) String() string {
	parts := make([]string, len(e.Elems))
	for i := range e.Elems {
		parts[i] = e.Names[i] + " = " + e.Elems[i].String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func (e *SetExpr) String() string {
	parts := make([]string, len(e.Elems))
	for i := range e.Elems {
		parts[i] = e.Elems[i].String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

func (e *Subscript) String() string {
	return fmt.Sprintf("%s[%s]", e.X, strings.Join(e.Attrs, ", "))
}

func (e *ExceptExpr) String() string {
	parts := make([]string, len(e.Elems))
	for i := range e.Elems {
		parts[i] = e.Names[i] + " = " + e.Elems[i].String()
	}
	return fmt.Sprintf("(%s except (%s))", e.X, strings.Join(parts, ", "))
}

func (e *Concat) String() string { return fmt.Sprintf("(%s ∘ %s)", e.L, e.R) }

func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "≠"
	case Lt:
		return "<"
	case Le:
		return "≤"
	case Gt:
		return ">"
	case Ge:
		return "≥"
	case In:
		return "∈"
	case Sub:
		return "⊂"
	case SubEq:
		return "⊆"
	case Sup:
		return "⊃"
	case SupEq:
		return "⊇"
	case Has:
		return "∋"
	}
	return fmt.Sprintf("cmp(%d)", uint8(op))
}

func (e *Cmp) String() string { return fmt.Sprintf("%s %s %s", e.L, e.Op, e.R) }

func (op ArithOp) String() string {
	switch op {
	case Add:
		return "+"
	case Subtract:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	}
	return fmt.Sprintf("arith(%d)", uint8(op))
}

func (e *Arith) String() string { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }
func (e *Not) String() string   { return fmt.Sprintf("¬(%s)", e.X) }
func (e *And) String() string   { return fmt.Sprintf("(%s ∧ %s)", e.L, e.R) }
func (e *Or) String() string    { return fmt.Sprintf("(%s ∨ %s)", e.L, e.R) }

func (op SetOpKind) String() string {
	switch op {
	case Union:
		return "∪"
	case Intersect:
		return "∩"
	case Diff:
		return "−"
	}
	return fmt.Sprintf("setop(%d)", uint8(op))
}

func (e *SetOp) String() string   { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }
func (e *Flatten) String() string { return fmt.Sprintf("flatten(%s)", e.X) }

func (e *Map) String() string {
	return fmt.Sprintf("α[%s : %s](%s)", e.Var, e.Body, e.Src)
}

func (e *Select) String() string {
	return fmt.Sprintf("σ[%s : %s](%s)", e.Var, e.Pred, e.Src)
}

func (e *Project) String() string {
	return fmt.Sprintf("π[%s](%s)", strings.Join(e.Attrs, ", "), e.X)
}

func (e *Unnest) String() string { return fmt.Sprintf("μ[%s](%s)", e.Attr, e.X) }

func (e *Nest) String() string {
	return fmt.Sprintf("ν[{%s}→%s](%s)", strings.Join(e.Attrs, ", "), e.As, e.X)
}

func (k JoinKind) String() string {
	switch k {
	case Inner:
		return "⋈"
	case Semi:
		return "⋉"
	case Anti:
		return "▷"
	case NestJ:
		return "⊣"
	case Outer:
		return "⟕"
	}
	return fmt.Sprintf("join(%d)", uint8(k))
}

func (e *Join) String() string {
	switch {
	case e.Kind == NestJ && e.RFun != nil:
		return fmt.Sprintf("(%s ⊣[%s,%s : %s ; %s→%s ; %s] %s)",
			e.L, e.LVar, e.RVar, e.On, e.RVar, e.RFun, e.As, e.R)
	case e.Kind == NestJ:
		return fmt.Sprintf("(%s ⊣[%s,%s : %s ; %s] %s)",
			e.L, e.LVar, e.RVar, e.On, e.As, e.R)
	default:
		return fmt.Sprintf("(%s %s[%s,%s : %s] %s)",
			e.L, e.Kind, e.LVar, e.RVar, e.On, e.R)
	}
}

func (k QuantKind) String() string {
	if k == Exists {
		return "∃"
	}
	return "∀"
}

func (e *Quant) String() string {
	return fmt.Sprintf("(%s%s ∈ %s • %s)", e.Kind, e.Var, e.Src, e.Pred)
}

func (op AggOp) String() string {
	switch op {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	case Avg:
		return "avg"
	}
	return fmt.Sprintf("agg(%d)", uint8(op))
}

func (e *Agg) String() string { return fmt.Sprintf("%s(%s)", e.Op, e.X) }

func (e *Materialize) String() string {
	return fmt.Sprintf("mat[%s→%s](%s)", e.Attr, e.As, e.X)
}

func (e *Let) String() string {
	return fmt.Sprintf("(%s with %s = %s)", e.Body, e.Var, e.Val)
}
