// Package value implements the complex-object data model underlying the ADL
// algebra of Steenhagen et al. (VLDB 1994): atomic values (booleans, integers,
// floats, strings, dates), object identifiers (oid), tuples built with the
// ⟨ ⟩ constructor, and sets built with the { } constructor. Tuples and sets
// nest arbitrarily.
//
// Values are immutable once constructed. The package provides deep equality,
// a total order (used for canonical printing and sort-based operators),
// hashing (used by hash-based physical operators and by set deduplication),
// and the set algebra the paper relies on: membership, inclusion, union,
// intersection, difference, and flattening.
package value

import "fmt"

// Kind discriminates the variants of the Value sum type.
type Kind uint8

// The kinds of values in the complex object model.
const (
	KindNull Kind = iota // SQL-style null, used by the outer-join repair of the COUNT bug
	KindBool
	KindInt
	KindFloat
	KindString
	KindDate
	KindOID
	KindTuple
	KindSet
)

// String returns the name of the kind as used in error messages.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindDate:
		return "date"
	case KindOID:
		return "oid"
	case KindTuple:
		return "tuple"
	case KindSet:
		return "set"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Value is the sum type of all complex-object values. The concrete variants
// are Null, Bool, Int, Float, String, Date, OID, *Tuple and *Set.
type Value interface {
	// Kind reports which variant this value is.
	Kind() Kind
	// String renders the value in the paper's surface notation, e.g.
	// ⟨a = 1, c = {1, 2}⟩ printed as (a=1, c={1, 2}).
	String() string
}

// Null is the absent value. It only arises from outer joins (the [GaWo87]
// COUNT-bug repair); the core algebra never produces it.
type Null struct{}

// Kind reports KindNull.
func (Null) Kind() Kind { return KindNull }

func (n Null) String() string { return atomText(n) }

// Bool is an atomic boolean value.
type Bool bool

// Kind reports KindBool.
func (Bool) Kind() Kind { return KindBool }

func (b Bool) String() string { return atomText(b) }

// Int is an atomic 64-bit integer value.
type Int int64

// Kind reports KindInt.
func (Int) Kind() Kind { return KindInt }

func (i Int) String() string { return atomText(i) }

// Float is an atomic 64-bit floating point value.
type Float float64

// Kind reports KindFloat.
func (Float) Kind() Kind { return KindFloat }

func (f Float) String() string { return atomText(f) }

// String is an atomic string value.
type String string

// Kind reports KindString.
func (String) Kind() Kind { return KindString }

func (s String) String() string { return atomText(s) }

// Date is an atomic date in the paper's literal format yyyymmdd
// (e.g. 940101 for January 1, 1994).
type Date int32

// Kind reports KindDate.
func (Date) Kind() Kind { return KindDate }

func (d Date) String() string { return atomText(d) }

// OID is an object identifier. The paper's logical design maps each class
// extension to a table of tuples carrying an oid field; class references
// become oid-valued attributes.
type OID uint64

// Kind reports KindOID.
func (OID) Kind() Kind { return KindOID }

func (o OID) String() string { return atomText(o) }

// Truth reports whether v is the boolean true. Non-boolean values are never
// true; predicates in the algebra are boolean-typed by construction.
func Truth(v Value) bool {
	b, ok := v.(Bool)
	return ok && bool(b)
}
