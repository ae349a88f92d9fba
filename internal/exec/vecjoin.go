package exec

import (
	"math/bits"
	"sync"
	"sync/atomic"

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
	// Back to front, so that a chain walks its slots in build order like
	// value.Index: every join then offers a left row's matches in one order.
	for i := len(keys) - 1; i >= 0; i-- {
		h := (uint64(keys[i]) * fibMix) >> t.shift
		t.next[i] = t.heads[h]
		t.heads[h] = int32(i + 1)
	}
	return t
}

// head returns the first slot of k's bucket (0 = empty).
func (t *i64Table) head(k int64) int32 {
	return t.heads[(uint64(k)*fibMix)>>t.shift]
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
	for i := len(keys) - 1; i >= 0; i-- {
		h := (fnv64(keys[i]) * fibMix) >> t.shift
		t.next[i] = t.heads[h]
		t.heads[h] = int32(i + 1)
	}
	return t
}

func (t *strTable) head(k string) int32 {
	return t.heads[(fnv64(k)*fibMix)>>t.shift]
}

// colValueKind maps a typed column kind to the value kind its entries carry
// (KindNull for Mixed, which has no single kind).
func colValueKind(k col.Kind) value.Kind {
	switch k {
	case col.Bool:
		return value.KindBool
	case col.Int:
		return value.KindInt
	case col.Float:
		return value.KindFloat
	case col.Str:
		return value.KindString
	case col.Date:
		return value.KindDate
	case col.OID:
		return value.KindOID
	case col.Set:
		return value.KindSet
	}
	return value.KindNull
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

// routeMode is the shape of a join's build keys, chosen once from their
// uniformity. It picks the table built over them and — in a partitioned
// build — how keys are routed to partitions, which both sides must do alike:
// mixing typed and generic routes would send equal keys to different
// partitions.
type routeMode int

const (
	routeGeneric routeMode = iota // value.Hash buckets, value.Equal
	routeInt                      // uniform int-backed keys, Fibonacci-mixed bits
	routeStr                      // uniform strings, FNV + Fibonacci mix
)

// chooseRoute picks the mode from the build keys, and the kind every key has
// under a typed mode.
func chooseRoute(keys []value.Value) (routeMode, value.Kind) {
	if len(keys) == 0 {
		return routeGeneric, value.KindNull
	}
	kind := keys[0].Kind()
	for _, k := range keys[1:] {
		if k.Kind() != kind {
			return routeGeneric, value.KindNull
		}
	}
	switch kind {
	case value.KindInt, value.KindDate, value.KindOID, value.KindBool:
		return routeInt, kind
	case value.KindString:
		return routeStr, kind
	}
	return routeGeneric, value.KindNull
}

// routeHash is the hash a key is routed by. Typed modes must only be called
// with keys of the routing kind.
func routeHash(mode routeMode, k value.Value) uint64 {
	switch mode {
	case routeInt:
		b, _ := valueBits(k)
		return uint64(b) * fibMix
	case routeStr:
		return fnv64(string(k.(value.String))) * fibMix
	}
	return value.Hash(k)
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

// index constructs the table the keys' own shape asks for.
func (t *keyTable) index() { t.indexAs(chooseRoute(t.keys)) }

// indexAs constructs the table of the given mode over t.keys, which must
// already be evaluated and, under a typed mode, all be of kind. The
// partitions of one build share the mode of the whole, so an empty partition
// still has the table its probes walk. indexAs never fails and touches only
// the receiver, so disjoint partitions can be indexed concurrently.
func (t *keyTable) indexAs(mode routeMode, kind value.Kind) {
	t.vkind, t.i64, t.str, t.gen = kind, nil, nil, nil
	switch mode {
	case routeInt:
		bs := make([]int64, len(t.keys))
		for i, k := range t.keys {
			bs[i], _ = valueBits(k)
		}
		t.i64 = newI64Table(bs)
	case routeStr:
		ss := make([]string, len(t.keys))
		for i, k := range t.keys {
			ss[i] = string(k.(value.String))
		}
		t.str = newStrTable(ss)
	default:
		t.gen = indexKeys(t.keys)
	}
}

// buildKeys evaluates the build key over every row: the v.attr shape reads
// straight off the tuples, skipping the interpreter; anything else — and any
// shape mismatch (non-tuple rows, missing attributes), so that it surfaces
// the interpreter's exact error — is evaluated, in parallel contiguous chunks
// when there are workers.
func buildKeys(ctx *Ctx, rows []value.Value, key Scalar, workers int) ([]value.Value, error) {
	if keys, ok := fieldKeys(rows, fieldKeyAttr(key)); ok {
		return keys, nil
	}
	if workers > 1 {
		k, err := evalKeys(ctx, rows, key, workers, "")
		return k.keys, err
	}
	keys := make([]value.Value, len(rows))
	for i, r := range rows {
		k, err := key.Eval(ctx, r)
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	return keys, nil
}

// fieldKeyAttr returns the attribute a v.attr-shaped key scalar reads, or
// "" when the key has another shape.
func fieldKeyAttr(key Scalar) string {
	f, ok := key.Expr.(*adl.Field)
	if !ok || len(key.Vars) != 1 {
		return ""
	}
	v, ok := f.X.(*adl.Var)
	if !ok || v.Name != key.Vars[0] {
		return ""
	}
	return f.Name
}

// fieldKeys reads attr off every row; ok is false when attr is "" (the key is
// no field access) or some row is not a tuple carrying it.
func fieldKeys(rows []value.Value, attr string) (_ []value.Value, ok bool) {
	if attr == "" {
		return nil, false
	}
	keys := make([]value.Value, len(rows))
	for i, r := range rows {
		tup, isTuple := r.(*value.Tuple)
		if !isTuple {
			return nil, false
		}
		if keys[i], ok = tup.Get(attr); !ok {
			return nil, false
		}
	}
	return keys, true
}

// forEach calls fn for every build row whose key equals k, with scalar
// semantics (typed kinds never cross; generic = hash bucket + Equal), until
// fn asks to stop.
func (t *keyTable) forEach(k value.Value, fn func(ri int) (stop bool)) {
	switch {
	case t.i64 != nil:
		if k.Kind() != t.vkind {
			return
		}
		b, _ := valueBits(k)
		for s := t.i64.head(b); s != 0; s = t.i64.next[s-1] {
			if t.i64.keys[s-1] == b && fn(int(s-1)) {
				return
			}
		}
	case t.str != nil:
		s2, ok := k.(value.String)
		if !ok {
			return
		}
		b := string(s2)
		for s := t.str.head(b); s != 0; s = t.str.next[s-1] {
			if t.str.keys[s-1] == b && fn(int(s-1)) {
				return
			}
		}
	default:
		for ri := t.gen.First(value.Hash(k)); ri >= 0; ri = t.gen.Next(ri) {
			if value.Equal(t.keys[ri], k) && fn(ri) {
				return
			}
		}
	}
}

// VecHashJoin is the batch hash join on an equi-key, of every kind: the
// right operand is drained once and hashed into flat typed tables, left
// batches probe them, and what a left row emits is the shared join verdict
// (joinEmit) — the paper's "common join implementation methods like the hash
// join can be adapted" (§6.1), nestjoin included. It sinks the batch
// pipeline: even a semijoin's rows leave as an Operator's.
//
// With Partitions > 1 it is the Grace-style parallel form: the build keys are
// routed by hash into that many tables (indexed concurrently), and left
// batches are dispatched whole over one bounded channel to as many probe
// workers, each probing all partitions read-only. The exchange granularity is
// Batch — one channel send per batch and per recycled selection buffer, never
// per tuple. Workers buffer their output rows locally together with each
// row's value.Hash, so Collect's final set build skips the serial deep-hash
// pass.
type VecHashJoin struct {
	Kind adl.JoinKind
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
	// As names the nestjoin's group attribute; RFun optionally maps each
	// matched pair to the group member.
	As   string
	RFun *Scalar
	// Partitions is the number of build tables and probe workers; at most 1
	// is one table probed on the caller's goroutine.
	Partitions int
}

// vecBuild is the build side of one run, read-only once indexed: the right
// rows and their keys split over the partitions by mode.
type vecBuild struct {
	parts []vecPartition
	mode  routeMode
	vkind value.Kind
}

// vecPartition is a key table and, slot for slot, the build rows keyed in it.
type vecPartition struct {
	tab  keyTable
	rows []value.Value
}

// part returns the partition a routing hash belongs to.
func (bs *vecBuild) part(h uint64) *vecPartition {
	if len(bs.parts) == 1 {
		return &bs.parts[0]
	}
	return &bs.parts[h%uint64(len(bs.parts))]
}

// Open builds the tables from the right operand and computes the join
// eagerly, like the scalar HashJoin.
func (j VecHashJoin) Open(ctx *Ctx) (_ Rows, err error) {
	p := max(j.Partitions, 1)
	right, err := drain(j.R, ctx)
	if err != nil {
		return nil, err
	}
	rkeys, err := buildKeys(ctx, right, j.RKey, p)
	if err != nil {
		return nil, err
	}
	bs := &vecBuild{parts: make([]vecPartition, p)}
	bs.mode, bs.vkind = chooseRoute(rkeys)
	if p == 1 {
		bs.parts[0] = vecPartition{tab: keyTable{keys: rkeys}, rows: right}
	} else {
		for i, k := range rkeys {
			pt := bs.part(routeHash(bs.mode, k))
			pt.tab.keys = append(pt.tab.keys, k)
			pt.rows = append(pt.rows, right[i])
		}
	}
	var bwg sync.WaitGroup
	for pi := 1; pi < p; pi++ {
		bwg.Add(1)
		go func(pt *vecPartition) {
			defer bwg.Done()
			pt.tab.indexAs(bs.mode, bs.vkind)
		}(&bs.parts[pi])
	}
	bs.parts[0].tab.indexAs(bs.mode, bs.vkind)
	bwg.Wait()

	left, err := ctx.openVec(j.L)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := left.CloseVec(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if p > 1 {
		return j.probeParallel(ctx, left, bs, right)
	}
	em := j.verdict(ctx, right)
	for {
		b, ok, err := left.NextBatch()
		if err != nil {
			return nil, err
		}
		if !ok {
			return buffered(em.out)
		}
		if err := j.probeBatch(ctx, b, bs, &em); err != nil {
			return nil, err
		}
	}
}

// verdict prepares the join verdict of the caller's goroutine or of one
// probe worker.
func (j VecHashJoin) verdict(ctx *Ctx, right []value.Value) joinEmit {
	return newJoinEmit(ctx, j.Kind, "hash join", j.Residual, j.RFun, j.As, right)
}

// probeWorker is one probe goroutine's private state: its verdict, whose out
// collects its share of the result, and the hashes of those rows.
type probeWorker struct {
	em     joinEmit
	hashes []uint64
	err    error
}

// probeParallel feeds left batches to one probe worker per partition and
// concatenates their outputs and the hashes of those rows.
func (j VecHashJoin) probeParallel(ctx *Ctx, left Batches, bs *vecBuild, right []value.Value) (Rows, error) {
	p := len(bs.parts)
	// The caller's goroutine is the feeder: it is the sole caller of
	// L.NextBatch and copies each selection into a pooled buffer before
	// dispatch (the producer may reuse its own buffer on the next call).
	in := make(chan Batch, p)
	pool := make(chan []int32, p+1)
	ws := make([]probeWorker, p)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for wi := range ws {
		wg.Add(1)
		go func(w *probeWorker) {
			defer wg.Done()
			w.em = j.verdict(ctx, right)
			for b := range in {
				if !failed.Load() {
					if w.err = j.probeBatch(ctx, b, bs, &w.em); w.err != nil {
						failed.Store(true)
					}
					for _, row := range w.em.out[len(w.hashes):] {
						w.hashes = append(w.hashes, value.Hash(row))
					}
				}
				select {
				case pool <- b.Sel[:cap(b.Sel)]:
				default:
				}
			}
		}(&ws[wi])
	}
	var feedErr error
	for {
		b, ok, nerr := left.NextBatch()
		if nerr != nil {
			feedErr = nerr
			break
		}
		if !ok || failed.Load() {
			break
		}
		var buf []int32
		select {
		case buf = <-pool:
		default:
		}
		if cap(buf) < len(b.Sel) {
			buf = make([]int32, len(b.Sel))
		}
		sel := buf[:len(b.Sel)]
		copy(sel, b.Sel)
		in <- Batch{Proj: b.Proj, Sel: sel}
	}
	close(in)
	wg.Wait()
	if feedErr != nil {
		return nil, feedErr
	}
	total := 0
	for i := range ws {
		if ws[i].err != nil {
			return nil, ws[i].err
		}
		total += len(ws[i].em.out)
	}
	out := &rowBuf{out: make([]value.Value, 0, total), hashes: make([]uint64, 0, total)}
	for i := range ws {
		out.out = append(out.out, ws[i].em.out...)
		out.hashes = append(out.hashes, ws[i].hashes...)
	}
	return out, nil
}

// probeBatch joins one batch against the build side through em — the one
// probe of the serial and the partitioned join; on a worker goroutine bs and
// j's exported config are read-only. It dispatches on the probe column's
// type: a typed column against the matching typed tables walks the flat
// chain with no value boxing; a typed column against typed tables of another
// kind matches nothing (Equal never crosses kinds); a typed column against
// generic tables reads the key off the decoded tuple; Mixed columns go
// through the interpreter, reference semantics and scalar errors included.
func (j VecHashJoin) probeBatch(ctx *Ctx, b Batch, bs *vecBuild, em *joinEmit) error {
	c := b.Proj.Col(j.LAttr)
	typedCol := c != nil && c.Kind != col.Mixed
	intCol := typedCol && bs.mode == routeInt && colValueKind(c.Kind) == bs.vkind
	strCol := typedCol && bs.mode == routeStr && c.Kind == col.Str
	for _, i := range b.Sel {
		lrow := b.Proj.Rows[i]
		if err := em.begin(lrow); err != nil {
			return err
		}
		switch {
		case intCol:
			k := c.Ints[i]
			pt := bs.part(uint64(k) * fibMix)
			for t, s := pt.tab.i64, pt.tab.i64.head(k); s != 0; s = t.next[s-1] {
				if t.keys[s-1] == k && em.match(pt.rows[s-1]) {
					break
				}
			}
		case strCol:
			k := c.Strs[i]
			pt := bs.part(fnv64(k) * fibMix)
			for t, s := pt.tab.str, pt.tab.str.head(k); s != 0; s = t.next[s-1] {
				if t.keys[s-1] == k && em.match(pt.rows[s-1]) {
					break
				}
			}
		case typedCol && bs.mode != routeGeneric:
			// Typed tables, probe column of another kind: nothing matches.
		default:
			var k value.Value
			if typedCol {
				// A typed column implies every row is a tuple carrying the
				// attribute.
				k, _ = em.lt.Get(j.LAttr)
			} else {
				var err error
				if k, err = j.LKey.Eval(ctx, lrow); err != nil {
					return err
				}
			}
			// Route with the same function the build side used; under typed
			// routing a key of another kind matches nothing.
			if bs.mode == routeGeneric || k.Kind() == bs.vkind {
				pt := bs.part(routeHash(bs.mode, k))
				pt.tab.forEach(k, func(ri int) bool { return em.match(pt.rows[ri]) })
			}
		}
		if err := em.end(); err != nil {
			return err
		}
	}
	return nil
}
