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

	ctx   *Ctx
	right []value.Value
	rowBuf
}

// Open materializes the right operand and computes the join eagerly (the
// result is bounded by the inputs; eager evaluation keeps Next trivial and
// the timing honest for benchmarks).
func (j *NLJoin) Open(ctx *Ctx) error {
	j.ctx = ctx
	var err error
	j.right, err = drain(j.R, ctx)
	if err != nil {
		return err
	}
	lrows, err := drain(j.L, ctx)
	if err != nil {
		return err
	}
	j.reset()
	nullPad := outerNullPad(j.Kind, j.right)
	for _, lrow := range lrows {
		lt, err := asTuple(lrow, "join")
		if err != nil {
			return err
		}
		matched := false
		var nest nestGroup
		for _, rrow := range j.right {
			ok, err := j.Pred.Bool(ctx, lrow, rrow)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			matched = true
			switch j.Kind {
			case adl.Inner, adl.Outer:
				rt, err := asTuple(rrow, "join")
				if err != nil {
					return err
				}
				cat, err := lt.Concat(rt)
				if err != nil {
					return err
				}
				j.out = append(j.out, cat)
			case adl.NestJ:
				member := rrow
				if j.RFun != nil {
					member, err = j.RFun.Eval(ctx, lrow, rrow)
					if err != nil {
						return err
					}
				}
				nest.add(member)
			}
			if j.Kind == adl.Semi {
				break
			}
		}
		switch j.Kind {
		case adl.Semi:
			if matched {
				j.out = append(j.out, lrow)
			}
		case adl.Anti:
			if !matched {
				j.out = append(j.out, lrow)
			}
		case adl.NestJ:
			j.out = append(j.out, lt.With(j.As, nest.set()))
		case adl.Outer:
			if !matched {
				cat, err := lt.Concat(nullPad)
				if err != nil {
					return err
				}
				j.out = append(j.out, cat)
			}
		}
	}
	return nil
}

// Close releases buffers.
func (j *NLJoin) Close() error {
	j.right, j.out = nil, nil
	return nil
}

// nestGroup collects the members a nestjoin or PNHL finds for one left row.
// The set is created by the first member; left rows without a partner all
// carry noMatches.
type nestGroup struct{ members *value.Set }

// noMatches is shared by every unmatched left row of every query, which the
// Set contract allows: a set is never mutated once it is shared.
var noMatches = value.EmptySet()

func (g *nestGroup) add(member value.Value) {
	if g.members == nil {
		g.members = value.EmptySet()
	}
	g.members.Add(member)
}

func (g *nestGroup) set() *value.Set {
	if g.members == nil {
		return noMatches
	}
	return g.members
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

// outerNullPad builds the null tuple over the right schema for outer joins.
func outerNullPad(kind adl.JoinKind, right []value.Value) *value.Tuple {
	if kind == adl.Outer && len(right) > 0 {
		if rt, ok := right[0].(*value.Tuple); ok {
			return value.NullTuple(rt.Shape)
		}
	}
	return value.EmptyTuple()
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

	ctx   *Ctx
	table *value.Index  // hash(key) → indices into right
	rkeys []value.Value // right rows' evaluated keys
	right []value.Value // retained for matching and outer-join null padding
	rowBuf
}

// Open builds and probes. The hash table is a value.Index over the key
// hashes with the keys in a flat side slice — the same layout the
// partitioned variant uses per partition.
func (j *HashJoin) Open(ctx *Ctx) error {
	j.ctx = ctx
	lkey, rkey := joinKeys(j.LKey, j.RKey)
	var err error
	j.right, err = drain(j.R, ctx)
	if err != nil {
		return err
	}
	j.rkeys = make([]value.Value, len(j.right))
	for i, rrow := range j.right {
		if j.rkeys[i], err = rkey.Eval(ctx, rrow); err != nil {
			return err
		}
	}
	j.table = indexKeys(j.rkeys)
	lrows, err := drain(j.L, ctx)
	if err != nil {
		return err
	}
	j.reset()
	nullPad := outerNullPad(j.Kind, j.right)
	for _, lrow := range lrows {
		lt, err := asTuple(lrow, "hash join")
		if err != nil {
			return err
		}
		lk, err := lkey.Eval(ctx, lrow)
		if err != nil {
			return err
		}
		matched := false
		var nest nestGroup
		for ri := j.table.First(value.Hash(lk)); ri >= 0; ri = j.table.Next(ri) {
			if !value.Equal(j.rkeys[ri], lk) {
				continue
			}
			rrow := j.right[ri]
			if j.Residual != nil {
				ok, err := j.Residual.Bool(ctx, lrow, rrow)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			matched = true
			switch j.Kind {
			case adl.Inner, adl.Outer:
				rt, err := asTuple(rrow, "hash join")
				if err != nil {
					return err
				}
				cat, err := lt.Concat(rt)
				if err != nil {
					return err
				}
				j.out = append(j.out, cat)
			case adl.NestJ:
				member := rrow
				if j.RFun != nil {
					member, err = j.RFun.Eval(ctx, lrow, rrow)
					if err != nil {
						return err
					}
				}
				nest.add(member)
			}
			if j.Kind == adl.Semi {
				break
			}
		}
		switch j.Kind {
		case adl.Semi:
			if matched {
				j.out = append(j.out, lrow)
			}
		case adl.Anti:
			if !matched {
				j.out = append(j.out, lrow)
			}
		case adl.NestJ:
			j.out = append(j.out, lt.With(j.As, nest.set()))
		case adl.Outer:
			if !matched {
				cat, err := lt.Concat(nullPad)
				if err != nil {
					return err
				}
				j.out = append(j.out, cat)
			}
		}
	}
	return nil
}

// Close releases buffers.
func (j *HashJoin) Close() error {
	j.table, j.rkeys, j.right, j.out = nil, nil, nil, nil
	return nil
}

// SetProbeJoin is the set-oriented implementation of joins whose predicate
// is a membership test against a set-valued attribute of the left operand:
//
//	L ⋉/▷/⊣ (x,y : key(y) ∈ x.attr) R
//
// — exactly the predicate shape the paper's Example Queries 5 and 6 reach
// after rewriting (p[pid] ∈ s.parts). The right operand is hashed once by
// key; each left tuple probes with the elements of its set-valued attribute.
// This is the single-segment core of the PNHL idea: the flat table is the
// build input, the nested operand probes.
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

	ctx *Ctx
	rowBuf
}

// Open builds and probes.
func (j *SetProbeJoin) Open(ctx *Ctx) error {
	j.ctx = ctx
	rrows, err := drain(j.R, ctx)
	if err != nil {
		return err
	}
	keys := make([]value.Value, len(rrows))
	for i, rrow := range rrows {
		if keys[i], err = j.RKey.Eval(ctx, rrow); err != nil {
			return err
		}
	}
	table := indexKeys(keys)
	lrows, err := drain(j.L, ctx)
	if err != nil {
		return err
	}
	j.reset()
	for _, lrow := range lrows {
		lt, err := asTuple(lrow, "set-probe join")
		if err != nil {
			return err
		}
		av, ok := lt.Get(j.Attr)
		if !ok {
			return fmt.Errorf("exec: set-probe join on missing attribute %q", j.Attr)
		}
		as, ok := av.(*value.Set)
		if !ok {
			return fmt.Errorf("exec: set-probe join on non-set attribute %q", j.Attr)
		}
		matched := false
		var nest nestGroup
	probe:
		for _, elem := range as.Elems() {
			for ri := table.First(value.Hash(elem)); ri >= 0; ri = table.Next(ri) {
				if !value.Equal(keys[ri], elem) {
					continue
				}
				matched = true
				switch j.Kind {
				case adl.Semi:
					break probe
				case adl.NestJ:
					member := rrows[ri]
					if j.RFun != nil {
						member, err = j.RFun.Eval(ctx, lrow, rrows[ri])
						if err != nil {
							return err
						}
					}
					nest.add(member)
				}
			}
		}
		switch j.Kind {
		case adl.Semi:
			if matched {
				j.out = append(j.out, lrow)
			}
		case adl.Anti:
			if !matched {
				j.out = append(j.out, lrow)
			}
		case adl.NestJ:
			j.out = append(j.out, lt.With(j.As, nest.set()))
		default:
			return fmt.Errorf("exec: set-probe join does not support kind %v", j.Kind)
		}
	}
	return nil
}

// Close releases buffers.
func (j *SetProbeJoin) Close() error { j.out = nil; return nil }
