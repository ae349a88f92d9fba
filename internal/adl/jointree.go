package adl

import (
	"fmt"

	"repro/internal/value"
)

// Join-tree decomposition and recomposition. A chain of inner joins produced
// by the rewriter — ((A ⋈ B) ⋈ C) ⋈ ... — fixes an evaluation order that the
// rewriter chose for convenience, not for cost. DecomposeJoinTree flattens
// such a tree into its leaf relations and a bag of predicate conjuncts
// rewritten in terms of per-leaf variables, so an optimizer can re-derive
// any join order; ComposeConjunct is the inverse direction, re-binding leaf
// variables to the operand variables of a newly chosen join node. Only the
// regular (inner) join without a right-tuple function is freely reorderable:
// semi/anti/nest/outer joins and extended nestjoins are treated as opaque
// leaves.

// JoinLeaf is one relation of a decomposed inner-join tree: a leaf
// expression (base extent or arbitrary subplan) and the fresh variable its
// rows are referred to by in the decomposed conjuncts.
type JoinLeaf struct {
	Var  string
	Expr Expr
}

// JoinTree is the flattened form of an inner-join chain: the leaf relations
// and every predicate conjunct of every join in the chain, each rewritten so
// it references leaf variables only.
type JoinTree struct {
	Leaves []JoinLeaf
	Conjs  []Expr
}

// Reorderable reports whether a join node may participate in join-order
// enumeration: the regular inner join, with no right-tuple function.
func Reorderable(j *Join) bool { return j.Kind == Inner && j.RFun == nil }

// DecomposeJoinTree flattens the maximal inner-join tree rooted at j into a
// JoinTree. attrsOf resolves the output attribute names of a leaf expression
// (nil means unknown); it is needed to re-point a predicate like ab.x — where
// ab ranges over the concatenated tuples of a multi-leaf operand — at the
// unique leaf owning attribute x. Decomposition fails (ok == false) when a
// conjunct's references cannot be attributed faithfully: an ambiguous or
// unresolvable attribute, a bare reference to an operand tuple as a whole, or
// a conjunct that rebinds an operand variable in a nested iterator.
func DecomposeJoinTree(j *Join, attrsOf func(Expr) []string) (*JoinTree, bool) {
	d := &treeDecomposer{attrsOf: attrsOf, root: j}
	leaves, conjs, ok := d.decompose(j)
	if !ok {
		return nil, false
	}
	return &JoinTree{Leaves: leaves, Conjs: conjs}, true
}

type treeDecomposer struct {
	attrsOf func(Expr) []string
	root    *Join
	nleaf   int
}

// decompose returns e's leaves and leaf-variable conjuncts. A non-join (or
// non-reorderable join) expression becomes a single leaf with no conjuncts.
func (d *treeDecomposer) decompose(e Expr) ([]JoinLeaf, []Expr, bool) {
	j, isJoin := e.(*Join)
	if !isJoin || !Reorderable(j) {
		v := Fresh(fmt.Sprintf("r%d", d.nleaf), d.root)
		d.nleaf++
		return []JoinLeaf{{Var: v, Expr: e}}, nil, true
	}
	lLeaves, lConjs, ok := d.decompose(j.L)
	if !ok {
		return nil, nil, false
	}
	rLeaves, rConjs, ok := d.decompose(j.R)
	if !ok {
		return nil, nil, false
	}
	conjs := append(lConjs, rConjs...)
	for _, c := range Conjuncts(j.On) {
		c, ok = d.rebase(c, j.LVar, lLeaves)
		if !ok {
			return nil, nil, false
		}
		c, ok = d.rebase(c, j.RVar, rLeaves)
		if !ok {
			return nil, nil, false
		}
		conjs = append(conjs, c)
	}
	return append(lLeaves, rLeaves...), conjs, true
}

// rebase rewrites every reference to the operand variable v in conjunct c
// into a reference to the leaf owning the accessed attribute.
func (d *treeDecomposer) rebase(c Expr, v string, leaves []JoinLeaf) (Expr, bool) {
	if !HasFree(c, v) {
		return c, true
	}
	// A conjunct that rebinds v in a nested iterator would make the textual
	// rewrite below unsound; such shapes do not occur in rewriter output.
	if BindsVar(c, v) {
		return nil, false
	}
	if len(leaves) == 1 {
		// Single-leaf operand: every reference to v is a reference to the
		// leaf, attribute knowledge not needed.
		return Subst(c, v, V(leaves[0].Var)), true
	}
	owner, ok := d.attrOwner(leaves)
	if !ok {
		return nil, false
	}
	failed := false
	out := Transform(c, func(x Expr) Expr {
		switch n := x.(type) {
		case *Field:
			if vr, isVar := n.X.(*Var); isVar && vr.Name == v {
				lf, found := owner[n.Name]
				if !found {
					failed = true
					return x
				}
				return &Field{X: V(lf), Name: n.Name}
			}
		case *Subscript:
			if vr, isVar := n.X.(*Var); isVar && vr.Name == v {
				lf, found := sameOwner(owner, n.Attrs)
				if !found {
					failed = true
					return x
				}
				return &Subscript{X: V(lf), Attrs: n.Attrs}
			}
		}
		return x
	})
	// Any remaining free occurrence of v (e.g. the bare operand tuple) has no
	// per-leaf meaning.
	if failed || HasFree(out, v) {
		return nil, false
	}
	return out, true
}

// attrOwner maps every attribute of the given leaves to the variable of its
// unique owner; ambiguity or an attribute-less leaf fails.
func (d *treeDecomposer) attrOwner(leaves []JoinLeaf) (map[string]string, bool) {
	owner := map[string]string{}
	for _, lf := range leaves {
		var attrs []string
		if d.attrsOf != nil {
			attrs = d.attrsOf(lf.Expr)
		}
		if len(attrs) == 0 {
			return nil, false
		}
		for _, a := range attrs {
			if _, dup := owner[a]; dup {
				return nil, false
			}
			owner[a] = lf.Var
		}
	}
	return owner, true
}

// sameOwner resolves a multi-attribute subscript: all attributes must belong
// to the same leaf.
func sameOwner(owner map[string]string, attrs []string) (string, bool) {
	if len(attrs) == 0 {
		return "", false
	}
	lf, ok := owner[attrs[0]]
	if !ok {
		return "", false
	}
	for _, a := range attrs[1:] {
		if owner[a] != lf {
			return "", false
		}
	}
	return lf, true
}

// BindsVar reports whether any iterator inside e binds the variable name.
func BindsVar(e Expr, name string) bool {
	found := false
	Walk(e, func(x Expr) bool {
		switch n := x.(type) {
		case *Map:
			found = found || n.Var == name
		case *Select:
			found = found || n.Var == name
		case *Quant:
			found = found || n.Var == name
		case *Let:
			found = found || n.Var == name
		case *Join:
			found = found || n.LVar == name || n.RVar == name
		}
		return !found
	})
	return found
}

// Conjuncts splits a predicate into its conjunct list, dropping literal
// trues. It is the predicate-level inverse of AndE.
func Conjuncts(e Expr) []Expr {
	if a, ok := e.(*And); ok {
		return append(Conjuncts(a.L), Conjuncts(a.R)...)
	}
	if c, ok := e.(*Const); ok {
		if b, isB := c.Val.(value.Bool); isB && bool(b) {
			return nil
		}
	}
	return []Expr{e}
}

// ComposeConjunct rewrites a decomposed conjunct for a newly composed join
// node: every leaf variable in lvars is re-bound to the join's left operand
// variable lv, every one in rvars to rv. Inner-join outputs concatenate
// operand tuples, so an attribute access through a leaf variable stays valid
// through the operand variable of any join whose side contains that leaf.
func ComposeConjunct(c Expr, lvars []string, lv string, rvars []string, rv string) Expr {
	for _, v := range lvars {
		if v != lv {
			c = Subst(c, v, V(lv))
		}
	}
	for _, v := range rvars {
		if v != rv {
			c = Subst(c, v, V(rv))
		}
	}
	return c
}
