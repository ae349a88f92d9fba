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
//
// With Partitions > 1 it is the Grace-style parallel form: both operands are
// hash-partitioned on their keys, and each partition is built and probed on
// its own goroutine, the results merged through a bounded channel (parallel.go).
type HashJoin struct {
	Kind       adl.JoinKind
	L, R       Operator
	LVar, RVar string
	LKey, RKey Scalar
	// Residual is an optional extra predicate over both variables.
	Residual *Scalar
	As       string
	RFun     *Scalar
	// Partitions is the partition and goroutine count; at most 1 builds and
	// probes one table on the caller's goroutine.
	Partitions int
	// Unnest, when set, is μ applied to L: the join runs on L's rows unnested
	// on this attribute. A residual-free semi- or antijoin whose left key is
	// an attribute of the unnested row expands each row inside its probe and
	// builds an unnested row only for an element it emits; partitioned, it
	// builds every partition's table first and each worker probes them with a
	// contiguous share of L's rows, every element the table its key hashes
	// to. Any other join builds all the unnested rows first.
	Unnest string
}

// Open evaluates and hashes both sides' keys, then runs joinPartition (or,
// expanding μ in the probe, unnestProbe.probe) once over all rows, or once
// per partition on workers.
func (j HashJoin) Open(ctx *Ctx) (Rows, error) {
	p := max(j.Partitions, 1)
	lkey, rkey := joinKeys(j.LKey, j.RKey)
	rrows, err := drain(j.R, ctx)
	if err != nil {
		return nil, err
	}
	r, err := evalKeys(ctx, rrows, rkey, p, "")
	if err != nil {
		return nil, err
	}
	rparts := partition(r.hashes, p)
	// probe is the work of worker part of p.
	var probe func(part int, em *joinEmit, out *chunkWriter) error
	if attr := j.probeAttr(); attr != "" {
		l, err := j.unnestLeft(ctx, attr, lkey)
		if err != nil {
			return nil, err
		}
		tables := make([]*value.Index, p)
		for i, ri := range rparts {
			tables[i] = r.table(ri)
		}
		n := len(l.rows)
		share := (n + p - 1) / p
		probe = func(part int, em *joinEmit, out *chunkWriter) error {
			rows := l.rows[min(part*share, n):min((part+1)*share, n)]
			return l.probe(em, rows, r, rparts, tables, out)
		}
	} else {
		lrows, err := j.left(ctx)
		if err != nil {
			return nil, err
		}
		l, err := evalKeys(ctx, lrows, lkey, p, "hash join")
		if err != nil {
			return nil, err
		}
		lparts := partition(l.hashes, p)
		probe = func(part int, em *joinEmit, out *chunkWriter) error {
			return joinPartition(em, l, lparts[part], r, rparts[part], out)
		}
	}
	if p == 1 {
		em := newJoinEmit(ctx, j.Kind, "hash join", j.Residual, j.RFun, j.As, rrows)
		if err := probe(0, &em, nil); err != nil {
			return nil, err
		}
		return buffered(em.out)
	}
	merge := newParMerge()
	for i := range p {
		merge.wg.Add(1)
		go func(part int) {
			defer merge.wg.Done()
			em := newJoinEmit(ctx, j.Kind, "hash join", j.Residual, j.RFun, j.As, rrows)
			out := chunkWriter{m: merge, ch: merge.out}
			if err := probe(part, &em, &out); err != nil {
				merge.fail(err)
				return
			}
			out.buf = em.out
			out.flush()
		}(i)
	}
	go func() {
		merge.wg.Wait()
		close(merge.out)
	}()
	return merge, nil
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

// unnestProbe is the left side of a hash join that expands μ inside its
// probe: L's rows, on which every check of μ has passed, and the left key,
// which is the unnested row's attribute attr.
type unnestProbe struct {
	rows []value.Value
	attr string
	key  Scalar
	un   unnester // the value receiver gives each worker its own
}

// unnestLeft drains L for a join that expands μ inside its probe. Each row
// gets μ's checks as it arrives, and each element's key is read: where its
// attribute is missing, the key is evaluated as written on the built row,
// and the first such error is returned only once L is drained without one,
// as the unfused join evaluates its keys after the whole of μ.
func (j HashJoin) unnestLeft(ctx *Ctx, attr string, lkey Scalar) (unnestProbe, error) {
	l := unnestProbe{attr: attr, key: lkey, un: unnester{attr: j.Unnest}}
	var keyErr error
	rows, err := drainEach(j.L, ctx, func(row value.Value) error {
		return l.un.each(row, func(et *value.Tuple) error {
			if _, ok := l.un.get(et, attr); !ok && keyErr == nil {
				_, keyErr = lkey.Eval(ctx, l.un.build(et))
			}
			return nil
		})
	})
	if err == nil {
		err = keyErr
	}
	l.rows = rows
	return l, err
}

// probe is joinPartition for an unnested left side: it walks the elements
// of rows, reads each one's key off the element or the rest of its row, and
// probes the table of the right rows' partition the key hashes to (rparts
// and tables, one each per partition). The unnested row is built only for
// an element the verdict emits.
func (l unnestProbe) probe(em *joinEmit, rows []value.Value, r keyedRows, rparts [][]int, tables []*value.Index, out *chunkWriter) error {
	// No residual: an equal key is a match; a semijoin emits the matched
	// elements, an antijoin the unmatched ones.
	emitMatched := em.kind == adl.Semi
	probeElem := func(et *value.Tuple) error {
		key, ok := l.un.get(et, l.attr)
		if !ok {
			var err error
			if key, err = l.key.Eval(em.ctx, l.un.build(et)); err != nil {
				return err
			}
		}
		h := value.Hash(key)
		part := 0
		if len(tables) > 1 {
			part = int(h % uint64(len(tables)))
		}
		table, ri := tables[part], rparts[part]
		matched := false
		for m := table.First(h); m >= 0 && !matched; m = table.Next(m) {
			matched = value.Equal(r.keys[at(ri, m)], key)
		}
		if matched == emitMatched {
			em.emit(l.un.build(et))
		}
		return nil
	}
	for _, row := range rows {
		if err := l.un.each(row, probeElem); err != nil {
			return err
		}
		if out != nil && len(em.out) >= chunkRows {
			out.buf, em.out = em.out, nil
			if !out.flush() {
				return nil
			}
		}
	}
	return nil
}

// table is a value.Index over the key hashes of the rows ri (nil: every row).
func (k keyedRows) table(ri []int) *value.Index {
	hashes := k.hashes
	if ri != nil {
		hashes = make([]uint64, len(ri))
		for i, x := range ri {
			hashes[i] = k.hashes[x]
		}
	}
	return value.NewIndex(hashes)
}

// joinPartition builds a value.Index over the key hashes of the right rows ri
// and probes it with the left rows li — nil lists every row of its side —
// handing each left row's candidates to em. With out, em's rows travel to the
// merge a chunk at a time, and an aborting pipeline ends the probe early,
// without error.
func joinPartition(em *joinEmit, l keyedRows, li []int, r keyedRows, ri []int, out *chunkWriter) error {
	table := r.table(ri)
	n := len(l.rows)
	if li != nil {
		n = len(li)
	}
	for i := range n {
		x := at(li, i)
		if err := em.begin(l.rows[x]); err != nil {
			return err
		}
		for m := table.First(l.hashes[x]); m >= 0; m = table.Next(m) {
			y := at(ri, m)
			if value.Equal(r.keys[y], l.keys[x]) && em.match(r.rows[y]) {
				break
			}
		}
		if err := em.end(); err != nil {
			return err
		}
		if out != nil && len(em.out) >= chunkRows {
			out.buf, em.out = em.out, nil
			if !out.flush() {
				return nil
			}
		}
	}
	return nil
}

// at is the i-th row of a partition's row list, nil listing every row.
func at(rows []int, i int) int {
	if rows == nil {
		return i
	}
	return rows[i]
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
