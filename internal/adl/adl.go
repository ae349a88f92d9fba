// Package adl defines the complex object algebra ADL of Steenhagen et al.
// (VLDB 1994, §3): a typed algebra in the style of the NF² algebra of
// [ScSc86] with the tuple ⟨ ⟩ and set { } constructors and the basic type
// oid. The operators are the standard set (comparison) operators, multiple
// union (flatten), the map operator α, selection σ, projection π,
// restructuring operators nest ν and unnest μ, the join family — regular
// join ⋈, semijoin ⋉, antijoin ▷, and the paper's new nestjoin ⊣ — plus
// quantifiers and aggregate functions. Iterators (map, select, joins,
// quantifiers) take lambda-style parameter expressions in which arbitrary
// nesting may occur; that nesting is exactly what the rewrite package
// removes.
//
// The paper's §3 also lists the extended Cartesian product ×, division ÷
// and renaming ρ. They are absent here because neither the OOSQL translation
// nor any rewrite rule builds them: a product is a join on true, universal
// quantification stays a ∀ that the rules turn into an antijoin rather than
// a division, and a rule that adds an attribute picks a fresh name for it,
// so nothing needs renaming.
package adl

import "repro/internal/value"

// Expr is an ADL expression. The concrete node types below form a closed
// sum; the rewriter pattern-matches on them.
type Expr interface {
	exprNode()
	// String renders the expression in an ASCII version of the paper's
	// notation; see print.go.
	String() string
}

// ---------------------------------------------------------------------------
// Leaves
// ---------------------------------------------------------------------------

// Const is a literal value.
type Const struct{ Val value.Value }

// Var references an iteration variable bound by an enclosing iterator
// (map, select, join, quantifier) or a with-binding.
type Var struct{ Name string }

// Table references a base table (class extension) by name. The goal of the
// paper's optimization is to make Table nodes occur only at top level, never
// nested inside iterator parameter expressions.
type Table struct{ Name string }

// ---------------------------------------------------------------------------
// Tuple constructors and accessors
// ---------------------------------------------------------------------------

// Field is attribute access e.a. When e evaluates to an oid, the reference
// is implicitly followed through the object store (OOSQL path expressions,
// e.g. d.supplier.sname).
type Field struct {
	X    Expr
	Name string
}

// TupleExpr builds a tuple value ⟨a1 = e1, ..., an = en⟩.
type TupleExpr struct {
	Names []string
	Elems []Expr
}

// SetExpr builds a set value {e1, ..., en}.
type SetExpr struct{ Elems []Expr }

// Subscript is the paper's tuple subscription e[a1, ..., an] (semantics
// rule 2): projection of a single tuple onto the named attributes.
type Subscript struct {
	X     Expr
	Attrs []string
}

// ExceptExpr is the paper's tuple "update" e except (a1=e1, ..., c1=e1')
// (semantics rule 3): update existing fields, keep the rest, append new ones.
type ExceptExpr struct {
	X     Expr
	Names []string
	Elems []Expr
}

// Concat is tuple concatenation x ∘ y.
type Concat struct{ L, R Expr }

// ---------------------------------------------------------------------------
// Scalar operators
// ---------------------------------------------------------------------------

// CmpOp enumerates comparison operators, including the set comparison
// operators of §5.2 whose rewriting into quantifier expressions is Table 1.
type CmpOp uint8

// Comparison operators. The set comparators follow the paper's θ ∈
// {∈, ⊂, ⊆, =, ⊃, ⊇, ∋}; NotIn/NotHas and the negations of the others are
// expressed with Not.
const (
	Eq    CmpOp = iota // =   (atoms, tuples, and set equality)
	Ne                 // ≠
	Lt                 // <   (ordered atoms)
	Le                 // ≤
	Gt                 // >
	Ge                 // ≥
	In                 // ∈   element-of
	Sub                // ⊂   proper subset
	SubEq              // ⊆   subset
	Sup                // ⊃   proper superset
	SupEq              // ⊇   superset
	Has                // ∋   contains element (x.c ∋ Y′: Y′ is a member of the set-of-sets x.c)
)

// Cmp is a binary comparison L op R.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// ArithOp enumerates arithmetic operators.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Subtract
	Mul
	Div
)

// Arith is binary arithmetic on int/float atoms.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Not is logical negation.
type Not struct{ X Expr }

// And is logical conjunction.
type And struct{ L, R Expr }

// Or is logical disjunction.
type Or struct{ L, R Expr }

// SetOpKind enumerates the binary set operators.
type SetOpKind uint8

// Binary set operators.
const (
	Union SetOpKind = iota
	Intersect
	Diff
)

// SetOp is a binary set operation L op R.
type SetOp struct {
	Op   SetOpKind
	L, R Expr
}

// ---------------------------------------------------------------------------
// Iterators and table operators
// ---------------------------------------------------------------------------

// Flatten is the paper's multiple union ∪(e) (semantics rule 1).
type Flatten struct{ X Expr }

// Map is the map operator α[x : body](src) (semantics rule 4): apply the
// function body to every element of src. The body may be arbitrarily
// complex, from a simple projection to the production of complex results.
type Map struct {
	Var  string
	Body Expr
	Src  Expr
}

// Select is the selection σ[x : pred](src) (semantics rule 5).
type Select struct {
	Var  string
	Pred Expr
	Src  Expr
}

// Project is the projection π[a1, ..., an](e) (semantics rule 6), defined on
// sets of tuples.
type Project struct {
	Attrs []string
	X     Expr
}

// Unnest is μ_attr(e) (semantics rule 7): flatten the set-valued attribute
// attr into the parent tuples.
type Unnest struct {
	Attr string
	X    Expr
}

// Nest is ν_{A→a}(e) (semantics rule 8): group by the attributes not in
// Attrs and collect each group's Attrs-subtuples into a set-valued
// attribute As.
type Nest struct {
	Attrs []string
	As    string
	X     Expr
}

// JoinKind enumerates the join family.
type JoinKind uint8

// Join kinds. Inner/Semi/Anti are the relational operators of semantics
// rules 10–12; Nest is the paper's nestjoin ⊣ (Definition 1, §6.1); Outer is
// the left outer join used by the [GaWo87] COUNT-bug repair.
const (
	Inner JoinKind = iota
	Semi
	Anti
	NestJ
	Outer
)

// Join is the join family: L kind(LVar, RVar : On) R. For the nestjoin,
// As names the set-valued result attribute and RFun — if non-nil — is the
// extended nestjoin's function applied to each matching right-operand tuple
// ([StAB94]; the simple nestjoin of Definition 1 has RFun == nil, meaning
// identity). For Outer joins, unmatched left tuples are padded with null.
type Join struct {
	Kind       JoinKind
	LVar, RVar string
	On         Expr
	As         string // NestJ only
	RFun       Expr   // NestJ only; function of LVar and RVar
	L, R       Expr
}

// QuantKind enumerates quantifiers.
type QuantKind uint8

// Quantifier kinds.
const (
	Exists QuantKind = iota
	Forall
)

// Quant is a quantifier expression ∃x ∈ src • pred or ∀x ∈ src • pred.
// Quantifiers are iterators: the range src may be a base table or a
// set-valued attribute, and pred may nest further iterators.
type Quant struct {
	Kind QuantKind
	Var  string
	Src  Expr
	Pred Expr
}

// AggOp enumerates aggregate functions.
type AggOp uint8

// Aggregate functions.
const (
	Count AggOp = iota
	Sum
	Min
	Max
	Avg
)

// Agg applies an aggregate function to a set.
type Agg struct {
	Op AggOp
	X  Expr
}

// Let is the with-construct of the paper's general query format: Let binds
// Var to Val inside Body. Translation inlines Lets before rewriting.
type Let struct {
	Var  string
	Val  Expr
	Body Expr
}

func (*Const) exprNode()      {}
func (*Var) exprNode()        {}
func (*Table) exprNode()      {}
func (*Field) exprNode()      {}
func (*TupleExpr) exprNode()  {}
func (*SetExpr) exprNode()    {}
func (*Subscript) exprNode()  {}
func (*ExceptExpr) exprNode() {}
func (*Concat) exprNode()     {}
func (*Cmp) exprNode()        {}
func (*Arith) exprNode()      {}
func (*Not) exprNode()        {}
func (*And) exprNode()        {}
func (*Or) exprNode()         {}
func (*SetOp) exprNode()      {}
func (*Flatten) exprNode()    {}
func (*Map) exprNode()        {}
func (*Select) exprNode()     {}
func (*Project) exprNode()    {}
func (*Unnest) exprNode()     {}
func (*Nest) exprNode()       {}
func (*Join) exprNode()       {}
func (*Quant) exprNode()      {}
func (*Agg) exprNode()        {}
func (*Let) exprNode()        {}
