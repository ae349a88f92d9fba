// Package oosql implements the front end for the paper's OOSQL dialect: an
// orthogonal, SQL-like language in which select-from-where blocks nest
// arbitrarily in the select-, from- and where-clause, ranges may be base
// tables or set-valued attributes, and predicates include quantifiers and
// set comparison operators.
//
// The grammar covers every construct the paper uses (Example Queries 1–6 and
// the general formats of §5.1/§5.2):
//
//	query   = expr
//	expr    = or-expr
//	or      = and ("or" and)*
//	and     = not ("and" not)*
//	not     = "not" not | cmp
//	cmp     = set [cmpop set]          cmpop: = <> < <= > >= in, not in,
//	                                   subset psubset superset psuperset contains
//	set     = add (("union"|"intersect"|"minus") add)*
//	add     = mul (("+"|"-") mul)*
//	mul     = unary (("*"|"/") unary)*
//	unary   = "-" unary | postfix
//	postfix = primary ("." ident)*
//	primary = literal | ident | "(" expr ")" | tuple | "{" exprs "}"
//	        | sfw | quantifier | fn "(" expr ")"
//	tuple   = "(" ident "=" expr ("," ident "=" expr)* ")"
//	sfw     = "select" expr "from" ident "in" expr ["where" expr]
//	          ("with" ident "=" expr)*
//	quant   = ("exists"|"forall") ident "in" set [":" expr]
//	fn      = count | sum | min | max | avg | flatten
//
// Note two ambiguities inherited from the paper's notation: "(x = e)"
// parses as a one-field tuple constructor, not as a parenthesized equality
// (write "((x) = e)" or "x = e" for the comparison); and a "with" following
// an unparenthesized select block attaches to that block, so chained
// bindings should parenthesize their values:
// "with A = (select ...) with B = (select ... A ...)".
package oosql

import (
	"fmt"

	"repro/internal/value"
)

// TokKind enumerates lexical token kinds.
type TokKind uint8

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokKeyword
	TokInt
	TokFloat
	TokString
	TokSym // punctuation and operator symbols
)

// Pos is a line/column source position (1-based).
type Pos struct{ Line, Col int }

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a lexical token. A literal's Val is its value, nil when it is out
// of range.
type Token struct {
	Kind TokKind
	Text string
	Val  value.Value
	Pos  Pos
}

func (t Token) String() string {
	if t.Kind == TokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.Text)
}

// isKeyword reports whether an identifier is a keyword of the language.
// Identifiers are case-sensitive; keywords are recognized in lower case only,
// matching the paper's examples.
func isKeyword(s string) bool {
	switch s {
	case "select", "from", "where", "in", "with",
		"exists", "forall",
		"and", "or", "not",
		"union", "intersect", "minus",
		"subset", "psubset", "superset", "psuperset",
		"contains",
		"count", "sum", "min", "max", "avg",
		"flatten",
		"true", "false":
		return true
	}
	return false
}

// Error is a front-end error carrying a source position.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("oosql: %s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...any) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
