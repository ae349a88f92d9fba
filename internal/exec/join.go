package exec

import (
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

// HashJoin is the set-oriented join family on equi-keys: it builds a hash
// table on the right operand keyed by RKey and probes it with LKey,
// applying an optional residual predicate. All join kinds are supported;
// for the nestjoin this is the paper's "common join implementation methods
// like the hash join can be adapted" (§6.1).
//
// With Partitions > 1 it is the parallel form: the right operand is split by
// key hash into that many tables, all built before any probe, and as many
// goroutines each probe a contiguous share of the left rows against them,
// their results joined in share order (parallel.go): the serial join's rows,
// in its order, and its first error.
type HashJoin struct {
	Kind       adl.JoinKind
	L, R       Operator
	LVar, RVar string
	LKey, RKey Scalar
	// Residual is an optional extra predicate over both variables.
	Residual *Scalar
	As       string
	RFun     *Scalar
	// Partitions is the table and probe-worker count; at most 1 builds and
	// probes one table on the caller's goroutine.
	Partitions int
	// Unnest, when set, is μ applied to L: the join runs on L's rows unnested
	// on this attribute. A residual-free semi- or antijoin whose left key is
	// an attribute of the unnested row expands each row inside its probe and
	// builds an unnested row only for an element it emits. Any other join
	// builds all the unnested rows first.
	Unnest string
}

// Open evaluates the build keys into the partition tables, drains L, and
// probes: on the caller's goroutine, or in one contiguous share of L's rows
// per partition.
func (j HashJoin) Open(ctx *Ctx) (Rows, error) {
	p := max(j.Partitions, 1)
	lkey, rkey := joinKeys(j.LKey, j.RKey)
	rrows, err := drain(j.R, ctx)
	if err != nil {
		return nil, err
	}
	r, err := evalKeys(ctx, rrows, rkey, p)
	if err != nil {
		return nil, err
	}
	l := hashProbe{tabs: newHashTables(r, p), key: lkey, attr: keyAttr(j.LKey, j.RKey)}
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
	return inShareRows(len(lrows), p, func(lo, hi int) ([]value.Value, error) {
		em := newJoinEmit(ctx, j.Kind, "hash join", j.Residual, j.RFun, j.As, rrows)
		err := l.probe(&em, lrows[lo:hi])
		return em.out, err
	})
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

// hashTables is the build side of a hash join: the right rows and their
// keys, split by key hash over the partitions, each indexed by a value.Index
// over its rows' key hashes. Built before any probe and read-only after, it
// is shared by every probe worker.
type hashTables struct {
	keyedRows
	parts  [][]int // each partition's rows; a single partition lists none
	tables []*value.Index
}

// newHashTables splits r over p partitions, carving the row lists and the
// hashes each table retains out of one array apiece sized by a counting pass.
func newHashTables(r keyedRows, p int) *hashTables {
	t := &hashTables{keyedRows: r, parts: make([][]int, p), tables: make([]*value.Index, p)}
	if p == 1 {
		t.tables[0] = value.NewIndex(r.hashes)
		return t
	}
	var small [16]int // p is a core count: the counters stay on the stack
	sizes := append(small[:0], make([]int, p)...)
	for _, h := range r.hashes {
		sizes[h%uint64(p)]++
	}
	rows, hashes := make([]int, len(r.hashes)), make([]uint64, len(r.hashes))
	phashes := make([][]uint64, p)
	for i, n := range sizes {
		t.parts[i], rows = rows[:0:n], rows[n:]
		phashes[i], hashes = hashes[:0:n], hashes[n:]
	}
	for i, h := range r.hashes {
		pi := h % uint64(p)
		t.parts[pi] = append(t.parts[pi], i)
		phashes[pi] = append(phashes[pi], h)
	}
	for i, hs := range phashes {
		t.tables[i] = value.NewIndex(hs)
	}
	return t
}

// lookup returns the table of the partition a key hash belongs to and that
// partition's rows (nil: every row).
func (t *hashTables) lookup(h uint64) (*value.Index, []int) {
	if len(t.tables) == 1 {
		return t.tables[0], nil
	}
	pi := h % uint64(len(t.tables))
	return t.tables[pi], t.parts[pi]
}

// at is the i-th row of a partition's row list, nil listing every row.
func at(rows []int, i int) int {
	if rows == nil {
		return i
	}
	return rows[i]
}

// hashProbe is the probe side of a hash join: the tables it probes, the left
// key and, when the key reads one attribute of the row, that attribute, read
// straight off the row wherever it has it. Expanding μ inside the probe, un
// is the unnester (the value receiver of probe gives each worker its own);
// otherwise its attr is "". A set μ expands whose reference column
// (value.Set.Column) is the key attribute is probed by the column's bits: no
// element is read unless its unnested row is emitted.
type hashProbe struct {
	tabs *hashTables
	key  Scalar
	attr string
	un   unnester
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

// probe joins rows, a share of L, against the tables: each row, or —
// expanding μ — each element of its set, whose unnested row is built only if
// the verdict emits it.
func (l hashProbe) probe(em *joinEmit, rows []value.Value) error {
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
		if l.find(key, nil) == semi {
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
			if l.findBits(kind, b) == semi {
				em.emit(l.un.build(set.Elems()[i].(*value.Tuple)))
			}
		}
		return nil
	}
	for _, row := range rows {
		var err error
		if l.un.attr != "" {
			err = probeSet(row)
		} else {
			err = l.probeRow(em, row)
		}
		if err != nil {
			return err
		}
	}
	return nil
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
	l.find(key, em)
	return em.end()
}

// find walks the build rows whose key equals key, offering each to em, if
// not nil, until it asks to stop. It reports whether there was one.
func (l *hashProbe) find(key value.Value, em *joinEmit) (found bool) {
	h := value.Hash(key)
	tab, ri := l.tabs.lookup(h)
	for m := tab.First(h); m >= 0; m = tab.Next(m) {
		y := at(ri, m)
		if !value.Equal(l.tabs.keys[y], key) {
			continue
		}
		found = true
		if em == nil || em.match(l.tabs.rows[y]) {
			break
		}
	}
	return found
}

// findBits reports whether a build row's key is the value of kind whose
// value.IntBits are b.
func (l *hashProbe) findBits(kind value.Kind, b int64) bool {
	h := value.HashBits(kind, b)
	tab, ri := l.tabs.lookup(h)
	for m := tab.First(h); m >= 0; m = tab.Next(m) {
		if value.EqualBits(l.tabs.keys[at(ri, m)], kind, b) {
			return true
		}
	}
	return false
}
