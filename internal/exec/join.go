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
}

// Open materializes the right operand and computes the join eagerly (the
// result is bounded by the inputs; eager evaluation keeps Next trivial and
// the timing honest for benchmarks).
func (j NLJoin) Open(ctx *Ctx) (Rows, error) {
	right, err := drain(j.R, ctx)
	if err != nil {
		return nil, err
	}
	lrows, err := drain(j.L, ctx)
	if err != nil {
		return nil, err
	}
	em := newJoinEmit(ctx, j.Kind, "join", &j.Pred, j.RFun, j.As, right)
	for _, lrow := range lrows {
		if err := em.begin(lrow); err != nil {
			return nil, err
		}
		for _, rrow := range right {
			if em.match(rrow) {
				break
			}
		}
		if err := em.end(); err != nil {
			return nil, err
		}
	}
	return buffered(em.out)
}

// indexKeys is the build side of every generic hash join: value.Hash buckets
// over the evaluated build keys, which the probe confirms with value.Equal.
func indexKeys(keys []value.Value) *value.Index {
	hashes := make([]uint64, len(keys))
	for i, k := range keys {
		hashes[i] = value.Hash(k)
	}
	return value.NewIndex(hashes)
}

// HashJoin is the set-oriented join family on equi-keys: it builds a hash
// table on the right operand keyed by RKey and probes it with LKey,
// applying an optional residual predicate. All join kinds are supported;
// for the nestjoin this is the paper's "common join implementation methods
// like the hash join can be adapted" (§6.1).
type HashJoin struct {
	Kind       adl.JoinKind
	L, R       Operator
	LVar, RVar string
	LKey, RKey Scalar
	// Residual is an optional extra predicate over both variables.
	Residual *Scalar
	As       string
	RFun     *Scalar
}

// Open builds and probes. The hash table is a value.Index over the key
// hashes with the keys in a flat side slice — the same layout the
// partitioned variant uses per partition.
func (j HashJoin) Open(ctx *Ctx) (Rows, error) {
	lkey, rkey := joinKeys(j.LKey, j.RKey)
	right, err := drain(j.R, ctx)
	if err != nil {
		return nil, err
	}
	rkeys := make([]value.Value, len(right))
	for i, rrow := range right {
		if rkeys[i], err = rkey.Eval(ctx, rrow); err != nil {
			return nil, err
		}
	}
	table := indexKeys(rkeys) // hash(key) → indices into right
	lrows, err := drain(j.L, ctx)
	if err != nil {
		return nil, err
	}
	em := newJoinEmit(ctx, j.Kind, "hash join", j.Residual, j.RFun, j.As, right)
	for _, lrow := range lrows {
		if err := em.begin(lrow); err != nil {
			return nil, err
		}
		lk, err := lkey.Eval(ctx, lrow)
		if err != nil {
			return nil, err
		}
		for ri := table.First(value.Hash(lk)); ri >= 0; ri = table.Next(ri) {
			if !value.Equal(rkeys[ri], lk) {
				continue
			}
			if em.match(right[ri]) {
				break
			}
		}
		if err := em.end(); err != nil {
			return nil, err
		}
	}
	return buffered(em.out)
}

// SetProbeJoin is the set-oriented implementation of joins whose predicate
// is a membership test against a set-valued attribute of the left operand:
//
//	L ⋉/▷/⊣ (x,y : key(y) ∈ x.attr) R
//
// — exactly the predicate shape the paper's Example Queries 5 and 6 reach
// after rewriting (p[pid] ∈ s.parts). The right operand is hashed once by
// key into a setKeyTable (vecsetjoin.go: a typed table over raw ints for
// the p[pid] shape); each left tuple probes with the elements of its
// set-valued attribute. This is the single-segment core of the PNHL idea:
// the flat table is the build input, the nested operand probes.
type SetProbeJoin struct {
	Kind adl.JoinKind
	L, R Operator
	// Attr is the set-valued attribute of left tuples whose elements are
	// probe keys.
	Attr string
	// RKey computes the build key of right rows (e.g. p[pid]).
	RKey Scalar
	As   string
	RFun *Scalar
}

// Open builds and probes.
func (j SetProbeJoin) Open(ctx *Ctx) (Rows, error) {
	if err := setJoinKind(j.Kind); err != nil {
		return nil, err
	}
	rrows, err := drain(j.R, ctx)
	if err != nil {
		return nil, err
	}
	var tab setKeyTable
	if err := tab.build(ctx, rrows, j.RKey); err != nil {
		return nil, err
	}
	lrows, err := drain(j.L, ctx)
	if err != nil {
		return nil, err
	}
	em := newJoinEmit(ctx, j.Kind, "set-probe join", nil, j.RFun, j.As, nil)
	for _, lrow := range lrows {
		if err := em.begin(lrow); err != nil {
			return nil, err
		}
		as, err := setAttr(em.lt, j.Attr)
		if err != nil {
			return nil, err
		}
		tab.probe(as, rrows, &em)
		if err := em.end(); err != nil {
			return nil, err
		}
	}
	return buffered(em.out)
}

// setJoinKind rejects the kinds a set-probe join has no output rule for: the
// membership predicate pairs a left row with right rows, never concatenates
// them.
func setJoinKind(kind adl.JoinKind) error {
	switch kind {
	case adl.Semi, adl.Anti, adl.NestJ:
		return nil
	}
	return fmt.Errorf("exec: set-probe join does not support kind %v", kind)
}

// setAttr reads the set-valued probe attribute of a left tuple.
func setAttr(lt *value.Tuple, attr string) (*value.Set, error) {
	av, ok := lt.Get(attr)
	if !ok {
		return nil, fmt.Errorf("exec: set-probe join on missing attribute %q", attr)
	}
	as, ok := av.(*value.Set)
	if !ok {
		return nil, fmt.Errorf("exec: set-probe join on non-set attribute %q", attr)
	}
	return as, nil
}
