package exec

import (
	"fmt"

	"repro/internal/adl"
	"repro/internal/value"
)

// NLJoin is the tuple-oriented nested-loop join family — the baseline
// execution model the paper's rewrites escape from. It supports every join
// kind (inner, semi, anti, nestjoin, outer) with an arbitrary predicate.
type NLJoin struct {
	Kind       adl.JoinKind
	L, R       Operator
	LVar, RVar string
	Pred       Scalar
	As         string // nestjoin result attribute
	RFun       *Scalar
	// Sel, on a nestjoin, is α's body fused into the join: the row it emits,
	// over the left row and its group (Vars: α's variable, As). nil: the left
	// row extended by As.
	Sel *Scalar
}

// Open materializes the right operand and computes the join eagerly (the
// result is bounded by the inputs; eager evaluation keeps Next trivial and
// the timing honest for benchmarks). A semi- or antijoin over an empty right
// operand evaluates no predicate (emptyRight).
func (j NLJoin) Open(ctx *Ctx) (Rows, error) {
	right, err := drain(j.R, ctx)
	if err != nil {
		return nil, err
	}
	lrows, err := drain(j.L, ctx)
	if err != nil {
		return nil, err
	}
	if len(right) == 0 && (j.Kind == adl.Semi || j.Kind == adl.Anti) {
		return emptyRight(j.Kind, "join", lrows)
	}
	em := newJoinEmit(ctx, j.Kind, "join", &j.Pred, j.RFun, j.Sel, j.As, right)
	em.reserve(len(lrows))
	for _, lrow := range lrows {
		if err := em.begin(lrow); err != nil {
			return nil, err
		}
		for i := range right {
			if em.matchAt(i) {
				break
			}
		}
		if err := em.end(); err != nil {
			return nil, err
		}
	}
	return em.result(), nil
}

// HashJoin is the set-oriented join family on equi-keys: it builds one hash
// table (joinTable) on the right operand keyed by RKey and probes it with
// LKey, applying an optional residual predicate. All join kinds are
// supported; for the nestjoin this is the paper's "common join
// implementation methods like the hash join can be adapted" (§6.1).
//
// With Workers > 1 it is the parallel form: the build keys are evaluated and
// the left rows probed in that many contiguous shares, every share reading
// the one table, their results joined in share order (parallel.go): the
// serial join's rows, in its order, and its first error.
type HashJoin struct {
	Kind       adl.JoinKind
	L, R       Operator
	LVar, RVar string
	LKey, RKey Scalar
	// Residual is an optional extra predicate over both variables.
	Residual *Scalar
	As       string
	RFun     *Scalar
	// Sel is NLJoin.Sel.
	Sel *Scalar
	// Workers is the share count of key evaluation and probe; at most 1 runs
	// the join on the caller's goroutine.
	Workers int
	// Unnest, when set, is μ applied to L: the join runs on L's rows unnested
	// on this attribute. A residual-free semi- or antijoin whose left key is
	// an attribute of the unnested row expands each row inside its probe and
	// builds an unnested row only for an element it emits. Any other join
	// builds all the unnested rows first.
	Unnest string
	// In, when set, names a set-valued attribute of the left rows, and the
	// predicate is RKey(y) ∈ x.In in place of LKey = RKey (p[pid] ∈ s.parts,
	// Example Queries 5 and 6): each element of a row's set probes the
	// table, or each bit of its reference column (value.Set.Column). Only a
	// semi-, anti- or nestjoin; this is PNHL's single-segment core.
	In string
}

// Open builds the table, drains L, and probes: on the caller's goroutine, or
// in Workers contiguous shares of L's rows. A semi- or antijoin over an empty
// right operand builds no table and probes nothing (emptyRight).
func (j HashJoin) Open(ctx *Ctx) (Rows, error) {
	if j.In != "" && j.Kind != adl.Semi && j.Kind != adl.Anti && j.Kind != adl.NestJ {
		return nil, fmt.Errorf("exec: hash join on membership in %q does not support kind %v", j.In, j.Kind)
	}
	lkey, rkey := joinKeys(j.LKey, j.RKey)
	rrows, err := drain(j.R, ctx)
	if err != nil {
		return nil, err
	}
	if len(rrows) == 0 && j.Kind == adl.Semi && j.Unnest != "" {
		// μ's checks of every row and element, and no unnested row built.
		un := unnester{attr: j.Unnest}
		if _, err := drainEach(j.L, ctx, func(row value.Value) error {
			return un.each(row, func(*value.Tuple) error { return nil })
		}); err != nil {
			return nil, err
		}
		return buffered(nil)
	}
	if len(rrows) == 0 && (j.Kind == adl.Semi || j.Kind == adl.Anti) {
		lrows, err := j.left(ctx)
		if err != nil {
			return nil, err
		}
		return emptyRight(j.Kind, "hash join", lrows)
	}
	tab, err := newJoinTable(ctx, rrows, rkey, j.Workers)
	if err != nil {
		return nil, err
	}
	l := hashProbe{tab: tab, key: lkey, attr: keyAttr(j.LKey, j.RKey), in: j.In,
		em: newJoinEmit(ctx, j.Kind, "hash join", j.Residual, j.RFun, j.Sel, j.As, rrows)}
	var lrows []value.Value
	if j.probeAttr() != "" {
		l.un = unnester{attr: j.Unnest}
		lrows, err = l.unnestLeft(ctx, j.L)
	} else {
		lrows, err = j.left(ctx)
	}
	if err != nil {
		return nil, err
	}
	if j.Workers <= 1 {
		out, err := l.probe(lrows)
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	shared, rows := l, lrows // the shares' copies: l and lrows stay off the heap when serial
	shares, err := inShares(len(rows), j.Workers, func(lo, hi int) (*rowBuf, error) {
		return shared.probe(rows[lo:hi])
	})
	if err != nil {
		return nil, err
	}
	return joined(shares)
}

// left drains L, unnested on Unnest if that is set.
func (j HashJoin) left(ctx *Ctx) ([]value.Value, error) {
	if j.Unnest == "" {
		return drain(j.L, ctx)
	}
	un := unnester{attr: j.Unnest}
	var out []value.Value
	_, err := drainEach(j.L, ctx, func(row value.Value) (err error) {
		out, err = un.expand(out, row)
		return err
	})
	return out, err
}

// probeAttr is the attribute of the unnested row that is the left key, when
// the join expands Unnest inside its probe: a residual-free semi- or
// antijoin, the kinds whose output is a subset of the left rows, on a key
// that reads one attribute of the row. It is "" for every other join.
func (j HashJoin) probeAttr() string {
	if j.Unnest == "" || j.Residual != nil || (j.Kind != adl.Semi && j.Kind != adl.Anti) {
		return ""
	}
	return keyAttr(j.LKey, j.RKey)
}

// hashProbe is the probe side of a hash join: the table it probes, the left
// key and, when the key reads one attribute of the row, that attribute, read
// straight off the row wherever it has it; or, probing membership, the set
// attribute in; and the verdict each probe starts from. Expanding μ inside
// the probe, un is the unnester; otherwise its attr is "". The value
// receiver of probe gives each share its own verdict and unnester. A set μ
// expands whose reference column (value.Set.Column) is the key attribute is
// probed by the column's bits: no element is read unless its unnested row is
// emitted.
type hashProbe struct {
	tab  joinTable
	key  Scalar
	attr string
	in   string
	un   unnester
	em   joinEmit
}

// unnestLeft drains L for a join that expands μ inside its probe. Each row
// gets μ's checks as it arrives, and each element's key is read (unless the
// set's reference column is the key, which every element then has): where
// its attribute is missing, the key is evaluated as written on the built
// row, and the first such error is returned only once L is drained without
// one, as the unfused join evaluates its keys after the whole of μ.
func (l *hashProbe) unnestLeft(ctx *Ctx, op Operator) ([]value.Value, error) {
	var keyErr error
	rows, err := drainEach(op, ctx, func(row value.Value) error {
		set, err := l.un.set(row)
		if err != nil {
			return err
		}
		if _, _, ok, err := l.column(set); ok || err != nil {
			return err // every element has the key
		}
		return l.un.eachOf(set, func(et *value.Tuple) error {
			if _, ok := l.un.get(et, l.attr); !ok && keyErr == nil {
				_, keyErr = l.key.Eval(ctx, l.un.build(et))
			}
			return nil
		})
	})
	if err == nil {
		err = keyErr
	}
	return rows, err
}

// column returns the bits and kind of the key of each element of set, the
// current row's, when the set's reference column is the key attribute. Its
// elements then share one shape, so μ's check of the first stands for all.
func (l *hashProbe) column(set *value.Set) (value.Kind, []int64, bool, error) {
	shape, kind, bits := set.Column()
	if shape == nil || shape.Names()[0] != l.attr {
		return value.KindNull, nil, false, nil
	}
	_, err := l.un.elem(set.Elems()[0])
	return kind, bits, true, err
}

// probe joins rows, a share of L, against the table and returns what the
// verdict emits: each row's rows, or — expanding μ — each element's of its
// set, whose unnested row is built only if the verdict emits it.
func (l hashProbe) probe(rows []value.Value) (*rowBuf, error) {
	em := &l.em
	em.reserve(len(rows))
	// Expanding μ there is no residual: an equal key is a match; a semijoin
	// emits the matched elements, an antijoin the unmatched ones.
	semi := em.kind == adl.Semi
	probeElem := func(et *value.Tuple) error {
		key, ok := l.un.get(et, l.attr)
		if !ok {
			var err error
			if key, err = l.key.Eval(em.ctx, l.un.build(et)); err != nil {
				return err
			}
		}
		if (l.tab.find(key) >= 0) == semi {
			em.emit(l.un.build(et))
		}
		return nil
	}
	probeSet := func(row value.Value) error {
		set, err := l.un.set(row)
		if err != nil {
			return err
		}
		kind, bits, ok, err := l.column(set)
		if err != nil {
			return err
		}
		if !ok {
			return l.un.eachOf(set, probeElem)
		}
		for i, b := range bits {
			if (l.tab.findBits(kind, b) >= 0) == semi {
				em.emit(l.un.build(set.Elems()[i].(*value.Tuple)))
			}
		}
		return nil
	}
	for _, row := range rows {
		var err error
		switch {
		case l.un.attr != "":
			err = probeSet(row)
		case l.in != "":
			err = l.probeIn(em, row)
		default:
			err = l.probeRow(em, row)
		}
		if err != nil {
			return nil, err
		}
	}
	return em.result(), nil
}

// probeRow hands the build rows whose key equals row's to the verdict.
func (l *hashProbe) probeRow(em *joinEmit, row value.Value) error {
	if err := em.begin(row); err != nil {
		return err
	}
	var key value.Value
	ok := false
	if l.attr != "" {
		key, ok = em.lt.Get(l.attr)
	}
	if !ok {
		var err error
		if key, err = l.key.Eval(em.ctx, row); err != nil {
			return err
		}
	}
	l.tab.offer(l.tab.find(key), em)
	return em.end()
}

// probeIn hands the verdict the build rows whose key is an element of row's
// set attribute in, element after element, until it asks to stop.
func (l *hashProbe) probeIn(em *joinEmit, row value.Value) error {
	if err := em.begin(row); err != nil {
		return err
	}
	av, ok := em.lt.Get(l.in)
	if !ok {
		return fmt.Errorf("exec: hash join on missing attribute %q", l.in)
	}
	set, ok := av.(*value.Set)
	if !ok {
		return fmt.Errorf("exec: hash join on non-set attribute %q", l.in)
	}
	l.tab.offerElems(set, em)
	return em.end()
}
