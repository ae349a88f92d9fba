package exec

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/adl"
	"repro/internal/col"
	"repro/internal/value"
)

// fibMix scatters int64 keys across power-of-two bucket arrays
// (Fibonacci hashing: multiply by 2^64/φ, keep the high bits).
const fibMix uint64 = 0x9E3779B97F4A7C15

// i64Table is a chained flat hash table over int64 keys: heads holds
// 1-based slot numbers (0 = empty bucket), next chains slots, and slot i is
// build row i. Two slices and no boxing — the build side of the vectorized
// equi-joins for int-backed key columns (int, date, oid, bool).
type i64Table struct {
	heads []int32
	next  []int32
	keys  []int64
	shift uint
}

func newI64Table(keys []int64) *i64Table {
	nb := 8
	for nb < 2*len(keys) {
		nb <<= 1
	}
	t := &i64Table{
		heads: make([]int32, nb),
		next:  make([]int32, len(keys)),
		keys:  keys,
		shift: uint(64 - bits.Len(uint(nb-1))),
	}
	for i, k := range keys {
		h := (uint64(k) * fibMix) >> t.shift
		t.next[i] = t.heads[h]
		t.heads[h] = int32(i + 1)
	}
	return t
}

// head returns the first slot of k's bucket (0 = empty).
func (t *i64Table) head(k int64) int32 {
	return t.heads[(uint64(k)*fibMix)>>t.shift]
}

func (t *i64Table) contains(k int64) bool {
	for s := t.head(k); s != 0; s = t.next[s-1] {
		if t.keys[s-1] == k {
			return true
		}
	}
	return false
}

// strTable is the string-keyed counterpart of i64Table.
type strTable struct {
	heads []int32
	next  []int32
	keys  []string
	shift uint
}

func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001b3
	}
	return h
}

func newStrTable(keys []string) *strTable {
	nb := 8
	for nb < 2*len(keys) {
		nb <<= 1
	}
	t := &strTable{
		heads: make([]int32, nb),
		next:  make([]int32, len(keys)),
		keys:  keys,
		shift: uint(64 - bits.Len(uint(nb-1))),
	}
	for i, k := range keys {
		h := (fnv64(k) * fibMix) >> t.shift
		t.next[i] = t.heads[h]
		t.heads[h] = int32(i + 1)
	}
	return t
}

func (t *strTable) head(k string) int32 {
	return t.heads[(fnv64(k)*fibMix)>>t.shift]
}

func (t *strTable) contains(k string) bool {
	for s := t.head(k); s != 0; s = t.next[s-1] {
		if t.keys[s-1] == k {
			return true
		}
	}
	return false
}

// colValueKind maps a typed column kind to the value kind its entries carry
// (Mixed has no single kind).
func colValueKind(k col.Kind) (value.Kind, bool) {
	switch k {
	case col.Bool:
		return value.KindBool, true
	case col.Int:
		return value.KindInt, true
	case col.Float:
		return value.KindFloat, true
	case col.Str:
		return value.KindString, true
	case col.Date:
		return value.KindDate, true
	case col.OID:
		return value.KindOID, true
	case col.Set:
		return value.KindSet, true
	}
	return value.KindNull, false
}

// intBacked reports whether a column kind stores its values in Ints.
func intBacked(k col.Kind) bool {
	return k == col.Int || k == col.Date || k == col.OID || k == col.Bool
}

// valueBits extracts the int64 image of an int-backed scalar value.
func valueBits(v value.Value) (int64, bool) {
	switch cv := v.(type) {
	case value.Int:
		return int64(cv), true
	case value.Date:
		return int64(cv), true
	case value.OID:
		return int64(cv), true
	case value.Bool:
		if cv {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// keyTable is the build side of a vectorized equi-join: the evaluated build
// keys plus one of three tables over them. Uniform int-backed keys get the
// flat i64Table, uniform strings the strTable; anything else (floats, sets,
// tuples, mixed kinds, empty) falls back to the generic table — the exact
// structure the scalar HashJoin uses (value.Hash buckets probed with
// value.Equal), so float edge cases (±0, NaN) behave identically.
type keyTable struct {
	vkind value.Kind // key kind when a typed table is built
	keys  []value.Value
	i64   *i64Table
	str   *strTable
	gen   *value.Index
}

// build evaluates the key over each build row and constructs the table.
func (t *keyTable) build(ctx *Ctx, rows []value.Value, key Scalar) error {
	t.i64, t.str, t.gen = nil, nil, nil
	t.keys = t.keys[:0]
	if !t.appendFast(rows, key) {
		t.keys = t.keys[:0]
		for _, r := range rows {
			k, err := key.Eval(ctx, r)
			if err != nil {
				return err
			}
			t.keys = append(t.keys, k)
		}
	}
	t.index()
	return nil
}

// index constructs the table over t.keys, which must already be evaluated.
// Partitioned callers fill keys directly — routing rows by hash — and index
// each partition independently; index never fails and touches only the
// receiver, so disjoint partitions can be indexed concurrently.
func (t *keyTable) index() {
	t.i64, t.str, t.gen = nil, nil, nil
	if len(t.keys) > 0 {
		kind := t.keys[0].Kind()
		uniform := true
		for _, k := range t.keys[1:] {
			if k.Kind() != kind {
				uniform = false
				break
			}
		}
		if uniform {
			switch kind {
			case value.KindInt, value.KindDate, value.KindOID, value.KindBool:
				bs := make([]int64, len(t.keys))
				for i, k := range t.keys {
					bs[i], _ = valueBits(k)
				}
				t.vkind = kind
				t.i64 = newI64Table(bs)
				return
			case value.KindString:
				ss := make([]string, len(t.keys))
				for i, k := range t.keys {
					ss[i] = string(k.(value.String))
				}
				t.vkind = kind
				t.str = newStrTable(ss)
				return
			}
		}
	}
	t.gen = indexKeys(t.keys)
}

// appendFast fills keys by reading a v.attr key straight off each build
// tuple, skipping the per-row environment binding. False (with keys possibly
// partial) means the caller must re-evaluate through the interpreter, which
// is also how shape mismatches (non-tuple rows, missing attributes) surface
// the interpreter's exact errors.
func (t *keyTable) appendFast(rows []value.Value, key Scalar) bool {
	attr := fieldKeyAttr(key)
	if attr == "" {
		return false
	}
	for _, r := range rows {
		tup, ok := r.(*value.Tuple)
		if !ok {
			return false
		}
		k, ok := tup.Get(attr)
		if !ok {
			return false
		}
		t.keys = append(t.keys, k)
	}
	return true
}

// typed reports whether a typed (non-generic) table was built.
func (t *keyTable) typed() bool { return t.i64 != nil || t.str != nil }

// containsValue reports whether any build key equals k, with scalar
// semantics (typed kinds never cross; generic = hash bucket + Equal).
func (t *keyTable) containsValue(k value.Value) bool {
	if t.i64 != nil {
		if k.Kind() != t.vkind {
			return false
		}
		b, _ := valueBits(k)
		return t.i64.contains(b)
	}
	if t.str != nil {
		s, ok := k.(value.String)
		return ok && t.str.contains(string(s))
	}
	for ri := t.gen.First(value.Hash(k)); ri >= 0; ri = t.gen.Next(ri) {
		if value.Equal(t.keys[ri], k) {
			return true
		}
	}
	return false
}

// forEach calls fn for every build row whose key equals k.
func (t *keyTable) forEach(k value.Value, fn func(ri int) error) error {
	if t.i64 != nil {
		if k.Kind() != t.vkind {
			return nil
		}
		b, _ := valueBits(k)
		for s := t.i64.head(b); s != 0; s = t.i64.next[s-1] {
			if t.i64.keys[s-1] == b {
				if err := fn(int(s - 1)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if t.str != nil {
		s2, ok := k.(value.String)
		if !ok {
			return nil
		}
		b := string(s2)
		for s := t.str.head(b); s != 0; s = t.str.next[s-1] {
			if t.str.keys[s-1] == b {
				if err := fn(int(s - 1)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for ri := t.gen.First(value.Hash(k)); ri >= 0; ri = t.gen.Next(ri) {
		if value.Equal(t.keys[ri], k) {
			if err := fn(ri); err != nil {
				return err
			}
		}
	}
	return nil
}

// errStopProbe is the sentinel a probe callback returns to end the match
// walk early without error (a semijoin's first residual-passing hit);
// probeEach and forEachElem swallow it.
var errStopProbe = errors.New("exec: stop probe")

// probeEach walks every build row whose key matches left row i, dispatching
// on the probe column's type the way the join operators' inline fast paths
// do: a typed column against the matching typed table walks the flat chain
// with no value boxing; a typed column against a typed table of another kind
// matches nothing (Equal never crosses kinds); a typed column against the
// generic table reads the key off the decoded tuple; Mixed columns go
// through the interpreter, reference semantics and scalar errors included.
// fn may return errStopProbe to end the walk early.
func (t *keyTable) probeEach(ctx *Ctx, p *col.Proj, i int32, c *col.Col, lkey Scalar, attr, opName string, fn func(ri int) error) error {
	if err := t.probeWalk(ctx, p, i, c, lkey, attr, opName, fn); err != nil && err != errStopProbe {
		return err
	}
	return nil
}

func (t *keyTable) probeWalk(ctx *Ctx, p *col.Proj, i int32, c *col.Col, lkey Scalar, attr, opName string, fn func(ri int) error) error {
	typedCol := c != nil && c.Kind != col.Mixed
	switch {
	case typedCol && t.i64 != nil && intBacked(c.Kind) && mustColValueKind(c.Kind) == t.vkind:
		k := c.Ints[i]
		for s := t.i64.head(k); s != 0; s = t.i64.next[s-1] {
			if t.i64.keys[s-1] == k {
				if err := fn(int(s - 1)); err != nil {
					return err
				}
			}
		}
	case typedCol && t.str != nil && c.Kind == col.Str:
		k := c.Strs[i]
		for s := t.str.head(k); s != 0; s = t.str.next[s-1] {
			if t.str.keys[s-1] == k {
				if err := fn(int(s - 1)); err != nil {
					return err
				}
			}
		}
	case typedCol && t.typed():
		// cross-kind: no matches
	case typedCol:
		// Generic table, typed column: the key comes straight off the
		// decoded tuple (a typed column implies every row is a tuple
		// carrying the attribute).
		k, _ := p.Rows[i].(*value.Tuple).Get(attr)
		return t.forEach(k, fn)
	default:
		// Mixed column: reference row-wise path.
		if _, err := asTuple(p.Rows[i], opName); err != nil {
			return err
		}
		k, err := lkey.Eval(ctx, p.Rows[i])
		if err != nil {
			return err
		}
		return t.forEach(k, fn)
	}
	return nil
}

// VecSemiJoin is the batch hash semijoin/antijoin on an equi-key: the right
// operand is drained and hashed once, then left batches pass through with
// their selection narrowed to rows whose key column hits (semi) or misses
// (anti) the table. Left rows are untouched, so the operator stays a VecOp.
type VecSemiJoin struct {
	Anti bool
	L    VecOp
	R    Operator
	// LAttr is the left key column; LKey is the same key as a scalar, the
	// row-wise fallback when the column is not typed.
	LAttr string
	LKey  Scalar
	RKey  Scalar
	// Residual is an optional extra predicate over both join variables; a
	// key match counts only after the residual passes on the pair.
	Residual *Scalar

	ctx   *Ctx
	tab   keyTable
	right []value.Value
}

// OpenVec builds the table from the right operand and opens the left
// pipeline.
func (j *VecSemiJoin) OpenVec(ctx *Ctx) error {
	j.ctx = ctx
	rrows, err := drain(j.R, ctx)
	if err != nil {
		return err
	}
	if err := j.tab.build(ctx, rrows, j.RKey); err != nil {
		return err
	}
	if j.Residual != nil {
		j.right = rrows
	}
	return j.L.OpenVec(ctx)
}

// NextBatch yields the next non-empty probed batch.
func (j *VecSemiJoin) NextBatch() (Batch, bool, error) {
	for {
		b, ok, err := j.L.NextBatch()
		if err != nil || !ok {
			return Batch{}, false, err
		}
		if b.Sel, err = j.probe(b.Proj, b.Sel); err != nil {
			return Batch{}, false, err
		}
		if len(b.Sel) > 0 {
			return b, true, nil
		}
	}
}

// CloseVec closes the left pipeline (the right operand was drained at open).
func (j *VecSemiJoin) CloseVec() error {
	j.right = nil
	return j.L.CloseVec()
}

// probe narrows sel to the rows passing the (anti)semijoin.
func (j *VecSemiJoin) probe(p *col.Proj, sel []int32) ([]int32, error) {
	c := p.Col(j.LAttr)
	out := sel[:0]
	if j.Residual != nil {
		// Residual predicate: every key match walks the pair through the
		// interpreter until one passes (the scalar HashJoin's semi break).
		for _, i := range sel {
			lrow := p.Rows[i]
			matched := false
			err := j.tab.probeEach(j.ctx, p, i, c, j.LKey, j.LAttr, "hash join", func(ri int) error {
				ok, err := j.Residual.Bool(j.ctx, lrow, j.right[ri])
				if err != nil {
					return err
				}
				if ok {
					matched = true
					return errStopProbe
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			if matched != j.Anti {
				out = append(out, i)
			}
		}
		return out, nil
	}
	switch {
	case c != nil && j.tab.i64 != nil && intBacked(c.Kind) && mustColValueKind(c.Kind) == j.tab.vkind:
		for _, i := range sel {
			if j.tab.i64.contains(c.Ints[i]) != j.Anti {
				out = append(out, i)
			}
		}
	case c != nil && j.tab.str != nil && c.Kind == col.Str:
		for _, i := range sel {
			if j.tab.str.contains(c.Strs[i]) != j.Anti {
				out = append(out, i)
			}
		}
	case c != nil && c.Kind != col.Mixed && j.tab.typed():
		// Typed column against a typed table of a different kind: Equal
		// never crosses kinds, so nothing matches.
		if j.Anti {
			return sel, nil
		}
		return sel[:0], nil
	case c != nil && c.Kind != col.Mixed:
		// Generic table, typed column: the key comes straight off the
		// decoded tuple (a typed column implies every row is a tuple
		// carrying the attribute).
		for _, i := range sel {
			k, _ := p.Rows[i].(*value.Tuple).Get(j.LAttr)
			if j.tab.containsValue(k) != j.Anti {
				out = append(out, i)
			}
		}
	default:
		// Mixed column: reference row-wise path, scalar errors included.
		for _, i := range sel {
			if _, err := asTuple(p.Rows[i], "hash join"); err != nil {
				return nil, err
			}
			k, err := j.LKey.Eval(j.ctx, p.Rows[i])
			if err != nil {
				return nil, err
			}
			if j.tab.containsValue(k) != j.Anti {
				out = append(out, i)
			}
		}
	}
	return out, nil
}

// mustColValueKind is colValueKind for kinds known typed.
func mustColValueKind(k col.Kind) value.Kind {
	vk, _ := colValueKind(k)
	return vk
}

// VecInnerJoin is the batch hash inner/outer join on an equi-key. It sinks
// the batch pipeline: output rows are fresh concatenated tuples, so it
// exposes the Operator interface (plus bulk collection) rather than VecOp.
type VecInnerJoin struct {
	L     VecOp
	R     Operator
	LAttr string
	LKey  Scalar
	RKey  Scalar
	// Residual is an optional extra predicate over both join variables.
	Residual *Scalar
	// Outer pads unmatched left rows with nulls over the right schema.
	Outer bool

	right   []value.Value
	tab     keyTable
	nullPad *value.Tuple
	out     []value.Value
	pos     int
}

// Open builds the table from the right operand and computes the join
// eagerly, like the scalar HashJoin.
func (j *VecInnerJoin) Open(ctx *Ctx) (err error) {
	j.right, err = drain(j.R, ctx)
	if err != nil {
		return err
	}
	if err := j.tab.build(ctx, j.right, j.RKey); err != nil {
		return err
	}
	j.nullPad = value.EmptyTuple()
	if j.Outer {
		j.nullPad = outerNullPad(adl.Outer, j.right)
	}
	if err := j.L.OpenVec(ctx); err != nil {
		return err
	}
	defer func() {
		if cerr := j.L.CloseVec(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	j.out = j.out[:0]
	j.pos = 0
	for {
		b, ok, err := j.L.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := j.probeBatch(ctx, b); err != nil {
			return err
		}
	}
}

// probeBatch joins one batch into the output.
func (j *VecInnerJoin) probeBatch(ctx *Ctx, b Batch) error {
	c := b.Proj.Col(j.LAttr)
	for _, i := range b.Sel {
		lrow := b.Proj.Rows[i]
		lt, err := asTuple(lrow, "hash join")
		if err != nil {
			return err
		}
		matched := false
		if err := j.tab.probeEach(ctx, b.Proj, i, c, j.LKey, j.LAttr, "hash join", func(ri int) error {
			if j.Residual != nil {
				ok, err := j.Residual.Bool(ctx, lrow, j.right[ri])
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
			}
			matched = true
			return j.emit(lt, ri)
		}); err != nil {
			return err
		}
		if j.Outer && !matched {
			cat, err := lt.Concat(j.nullPad)
			if err != nil {
				return err
			}
			j.out = append(j.out, cat)
		}
	}
	return nil
}

// emit appends the concatenation of a left tuple with build row ri.
func (j *VecInnerJoin) emit(lt *value.Tuple, ri int) error {
	rt, err := asTuple(j.right[ri], "hash join")
	if err != nil {
		return err
	}
	cat, err := lt.Concat(rt)
	if err != nil {
		return err
	}
	j.out = append(j.out, cat)
	return nil
}

// Next yields the next joined row.
func (j *VecInnerJoin) Next() (value.Value, bool, error) {
	if j.pos >= len(j.out) {
		return nil, false, nil
	}
	row := j.out[j.pos]
	j.pos++
	return row, true, nil
}

// Close releases buffers.
func (j *VecInnerJoin) Close() error {
	j.right, j.out, j.nullPad = nil, nil, nil
	return nil
}

// CollectSet materializes the join straight into a set with the bulk
// constructor.
func (j *VecInnerJoin) CollectSet(ctx *Ctx) (*value.Set, error) {
	if err := j.Open(ctx); err != nil {
		return nil, errors.Join(err, j.Close())
	}
	s := value.NewSetFromSlice(j.out)
	j.out = j.out[:0]
	if cerr := j.Close(); cerr != nil {
		return nil, cerr
	}
	return s, nil
}

// VecHashGroupJoin is the batch hash nestjoin (grouping join) on an
// equi-key: each left row is extended with a set-valued attribute holding
// its matching right rows (or their RFun images) — the paper's nestjoin
// evaluated with the §6.1 hash-join adaptation over the typed batch tables.
// Exactly one output row per left row, matched or not.
type VecHashGroupJoin struct {
	L     VecOp
	R     Operator
	LAttr string
	LKey  Scalar
	RKey  Scalar
	// Residual is an optional extra predicate over both join variables.
	Residual *Scalar
	// As names the nest attribute; RFun optionally maps each matched pair
	// to the nested member.
	As   string
	RFun *Scalar

	right []value.Value
	tab   keyTable
	out   []value.Value
	pos   int
}

// Open builds the table from the right operand and computes the grouping
// join eagerly.
func (j *VecHashGroupJoin) Open(ctx *Ctx) (err error) {
	j.right, err = drain(j.R, ctx)
	if err != nil {
		return err
	}
	if err := j.tab.build(ctx, j.right, j.RKey); err != nil {
		return err
	}
	if err := j.L.OpenVec(ctx); err != nil {
		return err
	}
	defer func() {
		if cerr := j.L.CloseVec(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	j.out = j.out[:0]
	j.pos = 0
	for {
		b, ok, err := j.L.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		c := b.Proj.Col(j.LAttr)
		for _, i := range b.Sel {
			lrow := b.Proj.Rows[i]
			lt, err := asTuple(lrow, "hash join")
			if err != nil {
				return err
			}
			var nest nestGroup
			if err := j.tab.probeEach(ctx, b.Proj, i, c, j.LKey, j.LAttr, "hash join", func(ri int) error {
				if j.Residual != nil {
					ok, err := j.Residual.Bool(ctx, lrow, j.right[ri])
					if err != nil {
						return err
					}
					if !ok {
						return nil
					}
				}
				member := j.right[ri]
				if j.RFun != nil {
					if member, err = j.RFun.Eval(ctx, lrow, j.right[ri]); err != nil {
						return err
					}
				}
				nest.add(member)
				return nil
			}); err != nil {
				return err
			}
			j.out = append(j.out, lt.With(j.As, nest.set()))
		}
	}
}

// Next yields the next grouped row.
func (j *VecHashGroupJoin) Next() (value.Value, bool, error) {
	if j.pos >= len(j.out) {
		return nil, false, nil
	}
	row := j.out[j.pos]
	j.pos++
	return row, true, nil
}

// Close releases buffers.
func (j *VecHashGroupJoin) Close() error {
	j.right, j.out = nil, nil
	return nil
}

// CollectSet materializes the grouping join straight into a set.
func (j *VecHashGroupJoin) CollectSet(ctx *Ctx) (*value.Set, error) {
	if err := j.Open(ctx); err != nil {
		return nil, errors.Join(err, j.Close())
	}
	s := value.NewSetFromSlice(j.out)
	j.out = j.out[:0]
	if cerr := j.Close(); cerr != nil {
		return nil, cerr
	}
	return s, nil
}

// VecNLJoin is the batch nested-loop join — the reference showing the batch
// plumbing is semantics-neutral: batches stream through, but the predicate
// is still the interpreter evaluated per pair. Inner, semi and anti kinds.
type VecNLJoin struct {
	Kind adl.JoinKind
	L    VecOp
	R    Operator
	Pred Scalar

	out []value.Value
	pos int
}

// Open materializes the right operand and computes the join eagerly.
func (j *VecNLJoin) Open(ctx *Ctx) (err error) {
	right, err := drain(j.R, ctx)
	if err != nil {
		return err
	}
	if err := j.L.OpenVec(ctx); err != nil {
		return err
	}
	defer func() {
		if cerr := j.L.CloseVec(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	j.out = j.out[:0]
	j.pos = 0
	for {
		b, ok, err := j.L.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		for _, i := range b.Sel {
			lrow := b.Proj.Rows[i]
			lt, err := asTuple(lrow, "join")
			if err != nil {
				return err
			}
			matched := false
			for _, rrow := range right {
				ok, err := j.Pred.Bool(ctx, lrow, rrow)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
				matched = true
				if j.Kind == adl.Inner {
					rt, err := asTuple(rrow, "join")
					if err != nil {
						return err
					}
					cat, err := lt.Concat(rt)
					if err != nil {
						return err
					}
					j.out = append(j.out, cat)
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
			case adl.Inner:
				// matches already emitted
			default:
				return fmt.Errorf("exec: vectorized nested-loop join does not support kind %v", j.Kind)
			}
		}
	}
}

// Next yields the next joined row.
func (j *VecNLJoin) Next() (value.Value, bool, error) {
	if j.pos >= len(j.out) {
		return nil, false, nil
	}
	row := j.out[j.pos]
	j.pos++
	return row, true, nil
}

// Close releases buffers.
func (j *VecNLJoin) Close() error { j.out = nil; return nil }

// CollectSet materializes the join straight into a set.
func (j *VecNLJoin) CollectSet(ctx *Ctx) (*value.Set, error) {
	if err := j.Open(ctx); err != nil {
		return nil, errors.Join(err, j.Close())
	}
	s := value.NewSetFromSlice(j.out)
	j.out = j.out[:0]
	if cerr := j.Close(); cerr != nil {
		return nil, cerr
	}
	return s, nil
}

// VecSetProbeJoin is the batch form of the set-probe (anti)semijoin: left
// rows carry a set-valued attribute whose elements probe a table built over
// the right operand's key (key(y) ∈ x.attr). Left batches pass through with
// the selection narrowed, like VecSemiJoin.
//
// Build keys of the shape the planner actually produces — x[pid]-style unary
// tuples over an int-backed attribute — get a typed fast path: the table
// holds the raw int64s, and probe elements match when they are unary tuples
// of the same name and kind (exactly value.Equal on that shape). Anything
// else uses the generic hash/Equal structure of the scalar SetProbeJoin.
type VecSetProbeJoin struct {
	L    VecOp
	R    Operator
	Attr string
	RKey Scalar
	// Anti flips the semijoin to its complement.
	Anti bool

	ctx *Ctx
	tab setKeyTable
}

// setKeyTable is the build side of the vectorized set-probe joins: the
// right operand's evaluated keys under either the unary-tuple int fast path
// (a flat i64Table over the raw bits) or the generic hash/Equal structure of
// the scalar SetProbeJoin.
type setKeyTable struct {
	keys []value.Value
	gen  *value.Index
	u    *i64Table
	// uname/ukind describe the unary-tuple fast path's element shape.
	uname string
	ukind value.Kind
}

// build evaluates the key over each build row and constructs the table.
func (t *setKeyTable) build(ctx *Ctx, rrows []value.Value, key Scalar) error {
	t.keys = t.keys[:0]
	t.gen, t.u = nil, nil
	if bs, name, kind, ok := subscriptIntKeys(rrows, key); ok {
		t.u, t.uname, t.ukind = newI64Table(bs), name, kind
		return nil
	}
	for _, rrow := range rrows {
		k, err := key.Eval(ctx, rrow)
		if err != nil {
			return err
		}
		t.keys = append(t.keys, k)
	}
	if bs, name, kind, ok := unaryIntKeys(t.keys); ok {
		t.u, t.uname, t.ukind = newI64Table(bs), name, kind
	} else {
		t.gen = indexKeys(t.keys)
	}
	return nil
}

// anyMatch reports whether any element of as matches a build key.
func (t *setKeyTable) anyMatch(as *value.Set) bool {
	if t.u != nil {
		for _, elem := range as.Elems() {
			et, ok := elem.(*value.Tuple)
			if !ok || et.Len() != 1 || et.Names()[0] != t.uname {
				continue
			}
			ev, _ := et.Get(t.uname)
			if ev.Kind() != t.ukind {
				continue
			}
			b, _ := valueBits(ev)
			if t.u.contains(b) {
				return true
			}
		}
		return false
	}
	for _, elem := range as.Elems() {
		for ri := t.gen.First(value.Hash(elem)); ri >= 0; ri = t.gen.Next(ri) {
			if value.Equal(t.keys[ri], elem) {
				return true
			}
		}
	}
	return false
}

// forEachElem calls fn for every (set element, matching build row) pair in
// element order — the scalar SetProbeJoin's probe loop. fn may return
// errStopProbe to end the walk early.
func (t *setKeyTable) forEachElem(as *value.Set, fn func(ri int) error) error {
	err := t.walkElems(as, fn)
	if err == errStopProbe {
		return nil
	}
	return err
}

func (t *setKeyTable) walkElems(as *value.Set, fn func(ri int) error) error {
	if t.u != nil {
		for _, elem := range as.Elems() {
			et, ok := elem.(*value.Tuple)
			if !ok || et.Len() != 1 || et.Names()[0] != t.uname {
				continue
			}
			ev, _ := et.Get(t.uname)
			if ev.Kind() != t.ukind {
				continue
			}
			b, _ := valueBits(ev)
			for s := t.u.head(b); s != 0; s = t.u.next[s-1] {
				if t.u.keys[s-1] == b {
					if err := fn(int(s - 1)); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	for _, elem := range as.Elems() {
		for ri := t.gen.First(value.Hash(elem)); ri >= 0; ri = t.gen.Next(ri) {
			if value.Equal(t.keys[ri], elem) {
				if err := fn(ri); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// OpenVec builds the table from the right operand and opens the left
// pipeline.
func (j *VecSetProbeJoin) OpenVec(ctx *Ctx) error {
	j.ctx = ctx
	rrows, err := drain(j.R, ctx)
	if err != nil {
		return err
	}
	if err := j.tab.build(ctx, rrows, j.RKey); err != nil {
		return err
	}
	return j.L.OpenVec(ctx)
}

// subscriptIntKeys evaluates a v[attr] build key straight off the tuples
// when every row carries an int-backed value of one kind under attr — the
// unary-tuple fast path's table built without materializing a single unary
// tuple or environment frame. The shape produced is exactly what
// unaryIntKeys would extract from the evaluated keys (name = attr, uniform
// kind, raw bits), so probe semantics are unchanged. ok=false sends the
// caller through the interpreter loop, which also reproduces its errors
// (non-tuple rows, missing attributes).
func subscriptIntKeys(rows []value.Value, key Scalar) ([]int64, string, value.Kind, bool) {
	sub, ok := key.Expr.(*adl.Subscript)
	if !ok || len(sub.Attrs) != 1 || len(key.Vars) != 1 || len(rows) == 0 {
		return nil, "", value.KindNull, false
	}
	v, ok := sub.X.(*adl.Var)
	if !ok || v.Name != key.Vars[0] {
		return nil, "", value.KindNull, false
	}
	attr := sub.Attrs[0]
	var kind value.Kind
	bs := make([]int64, len(rows))
	for i, r := range rows {
		tup, ok := r.(*value.Tuple)
		if !ok {
			return nil, "", value.KindNull, false
		}
		ev, ok := tup.Get(attr)
		if !ok {
			return nil, "", value.KindNull, false
		}
		if i == 0 {
			kind = ev.Kind()
		} else if ev.Kind() != kind {
			return nil, "", value.KindNull, false
		}
		b, ok := valueBits(ev)
		if !ok {
			return nil, "", value.KindNull, false
		}
		bs[i] = b
	}
	return bs, attr, kind, true
}

// unaryIntKeys recognizes a uniform build-key shape of unary tuples over one
// int-backed attribute, returning the raw key bits.
func unaryIntKeys(keys []value.Value) ([]int64, string, value.Kind, bool) {
	if len(keys) == 0 {
		return nil, "", value.KindNull, false
	}
	first, ok := keys[0].(*value.Tuple)
	if !ok || first.Len() != 1 {
		return nil, "", value.KindNull, false
	}
	name := first.Names()[0]
	v, _ := first.Get(name)
	kind := v.Kind()
	if _, ok := valueBits(v); !ok {
		return nil, "", value.KindNull, false
	}
	bs := make([]int64, len(keys))
	for i, k := range keys {
		t, ok := k.(*value.Tuple)
		if !ok || t.Len() != 1 || t.Names()[0] != name {
			return nil, "", value.KindNull, false
		}
		ev, _ := t.Get(name)
		if ev.Kind() != kind {
			return nil, "", value.KindNull, false
		}
		bs[i], _ = valueBits(ev)
	}
	return bs, name, kind, true
}

// NextBatch yields the next non-empty probed batch.
func (j *VecSetProbeJoin) NextBatch() (Batch, bool, error) {
	for {
		b, ok, err := j.L.NextBatch()
		if err != nil || !ok {
			return Batch{}, false, err
		}
		if b.Sel, err = j.probe(b.Proj, b.Sel); err != nil {
			return Batch{}, false, err
		}
		if len(b.Sel) > 0 {
			return b, true, nil
		}
	}
}

// CloseVec closes the left pipeline.
func (j *VecSetProbeJoin) CloseVec() error { return j.L.CloseVec() }

// probe narrows sel to the rows whose set attribute hits (semi) or misses
// (anti) the table.
func (j *VecSetProbeJoin) probe(p *col.Proj, sel []int32) ([]int32, error) {
	c := p.Col(j.Attr)
	out := sel[:0]
	for _, i := range sel {
		as, err := setAttrOf(p, c, i, j.Attr)
		if err != nil {
			return nil, err
		}
		if j.tab.anyMatch(as) != j.Anti {
			out = append(out, i)
		}
	}
	return out, nil
}

// setAttrOf extracts the set-valued probe attribute of left row i, reading
// the typed column when present and falling back to the decoded tuple with
// the scalar SetProbeJoin's exact errors.
func setAttrOf(p *col.Proj, c *col.Col, i int32, attr string) (*value.Set, error) {
	if c != nil && c.Kind == col.Set {
		return c.Sets[i], nil
	}
	lt, err := asTuple(p.Rows[i], "set-probe join")
	if err != nil {
		return nil, err
	}
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

// VecSetGroupJoin is the batch set-probe nestjoin: each left row gains a
// set-valued attribute collecting the right rows (or their RFun images)
// whose key matches some element of the left row's set attribute — the
// single-segment PNHL shape with grouping output, sinking the batch
// pipeline like VecHashGroupJoin.
type VecSetGroupJoin struct {
	L    VecOp
	R    Operator
	Attr string
	RKey Scalar
	As   string
	RFun *Scalar

	right []value.Value
	tab   setKeyTable
	out   []value.Value
	pos   int
}

// Open builds the table from the right operand and computes the grouping
// join eagerly.
func (j *VecSetGroupJoin) Open(ctx *Ctx) (err error) {
	j.right, err = drain(j.R, ctx)
	if err != nil {
		return err
	}
	if err := j.tab.build(ctx, j.right, j.RKey); err != nil {
		return err
	}
	if err := j.L.OpenVec(ctx); err != nil {
		return err
	}
	defer func() {
		if cerr := j.L.CloseVec(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	j.out = j.out[:0]
	j.pos = 0
	for {
		b, ok, err := j.L.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		c := b.Proj.Col(j.Attr)
		for _, i := range b.Sel {
			lrow := b.Proj.Rows[i]
			lt, err := asTuple(lrow, "set-probe join")
			if err != nil {
				return err
			}
			as, err := setAttrOf(b.Proj, c, i, j.Attr)
			if err != nil {
				return err
			}
			var nest nestGroup
			if err := j.tab.forEachElem(as, func(ri int) error {
				member := j.right[ri]
				if j.RFun != nil {
					if member, err = j.RFun.Eval(ctx, lrow, j.right[ri]); err != nil {
						return err
					}
				}
				nest.add(member)
				return nil
			}); err != nil {
				return err
			}
			j.out = append(j.out, lt.With(j.As, nest.set()))
		}
	}
}

// Next yields the next grouped row.
func (j *VecSetGroupJoin) Next() (value.Value, bool, error) {
	if j.pos >= len(j.out) {
		return nil, false, nil
	}
	row := j.out[j.pos]
	j.pos++
	return row, true, nil
}

// Close releases buffers.
func (j *VecSetGroupJoin) Close() error {
	j.right, j.out = nil, nil
	return nil
}

// CollectSet materializes the grouping join straight into a set.
func (j *VecSetGroupJoin) CollectSet(ctx *Ctx) (*value.Set, error) {
	if err := j.Open(ctx); err != nil {
		return nil, errors.Join(err, j.Close())
	}
	s := value.NewSetFromSlice(j.out)
	j.out = j.out[:0]
	if cerr := j.Close(); cerr != nil {
		return nil, cerr
	}
	return s, nil
}
