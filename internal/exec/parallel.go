// Parallel partitioned execution: a Grace-style partitioned hash join and
// worker-pool wrappers for σ and α. The paper's argument is that rewriting
// nested loops into explicit joins lets the optimizer pick efficient join
// implementations (§5.1); on modern hardware "efficient" includes exploiting
// every core. Hash partitioning both operands on the join key makes each
// partition an independent join: equal keys hash equally, so a left row's
// matches — and therefore its semi/anti/nest/outer verdict — are decided
// entirely within its own partition.
//
// All parallel operators keep the Operator contract: Open launches the
// workers and returns the merge as the run's stream, whose Next hands up
// merged results from a bounded channel and whose Close tears the pipeline
// down. Result order is nondeterministic, which is harmless under the
// algebra's set semantics.
package exec

import (
	"runtime"
	"sync"

	"repro/internal/adl"
	"repro/internal/value"
)

// chunkRows is how many rows cross a channel together. Workers fill a chunk
// of their own and hand it over whole, so the select-guarded send, the lock
// it takes and the consumer's wake-up are paid once per chunk, not once per
// row — per row they were a third of a parallel plan's CPU. Swept with
// BenchmarkParallelFilter/D20000 (2 cores, 2 workers; median ms/op) at
// 1/16/64/256/1024 rows: 10.0/1.83/1.52/1.50/1.49 — flat from 64 on; 256
// leaves the margin for cheaper per-row work than a date comparison, and
// beyond it a short result only waits longer for its first row.
const chunkRows = 256

// mergeChunks is the capacity of the merge and feeder channels: the 1024
// rows in flight the per-row channels allowed.
const mergeChunks = 1024 / chunkRows

// Parallelism resolves a parallelism knob: n if positive, else NumCPU. It
// is exported so Explain and benchmark harnesses can report the effective
// partition/worker counts.
func Parallelism(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// parMerge is the stream of a parallel operator, the shared fan-in plumbing:
// workers send chunks of rows into a bounded channel, the consumer walks them
// out of Next, and the first error aborts the pipeline.
type parMerge struct {
	out   chan []value.Value
	abort chan struct{}
	once  sync.Once // guards closing abort
	errMu sync.Mutex
	err   error
	wg    sync.WaitGroup // every goroutine of the pipeline; Close waits for them

	cur []value.Value // the consumer's: rest of the chunk being walked
}

func newParMerge() *parMerge {
	return &parMerge{
		out:   make(chan []value.Value, mergeChunks),
		abort: make(chan struct{}),
	}
}

// chunkWriter is one goroutine's sending end of a chunk channel: rows
// accumulate locally and travel at the chunk boundary; the goroutine flushes
// the remainder when it is done.
type chunkWriter struct {
	m   *parMerge
	ch  chan<- []value.Value
	buf []value.Value
}

// emit adds a row. It reports whether the worker should continue.
func (w *chunkWriter) emit(row value.Value) bool {
	if w.buf == nil {
		w.buf = make([]value.Value, 0, chunkRows)
	}
	w.buf = append(w.buf, row)
	return len(w.buf) < chunkRows || w.flush()
}

// flush sends the rows accumulated so far, if any, unless the pipeline is
// aborting. It reports whether the worker should continue.
func (w *chunkWriter) flush() bool {
	if len(w.buf) == 0 {
		return true
	}
	chunk := w.buf
	w.buf = nil
	select {
	case w.ch <- chunk:
		return true
	case <-w.m.abort:
		return false
	}
}

// fail records the first error and aborts the pipeline.
func (m *parMerge) fail(err error) {
	m.errMu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.errMu.Unlock()
	m.stop()
}

// stop makes all workers wind down; it is safe to call repeatedly.
func (m *parMerge) stop() { m.once.Do(func() { close(m.abort) }) }

// Next yields the next row of the merged stream.
func (m *parMerge) Next() (value.Value, bool, error) {
	for len(m.cur) == 0 {
		chunk, ok := <-m.out
		if !ok {
			m.errMu.Lock()
			defer m.errMu.Unlock()
			return nil, false, m.err
		}
		m.cur = chunk
	}
	row := m.cur[0]
	m.cur = m.cur[1:]
	return row, true, nil
}

// teardown aborts the workers, consumes until the merge channel is closed so
// none stays blocked on a send, and waits for them.
func (m *parMerge) teardown() {
	m.stop()
	for range m.out {
	}
	m.wg.Wait()
}

// Close tears the pipeline down.
func (m *parMerge) Close() error { m.teardown(); return nil }

// keyedRows are one side of a join: its rows, their evaluated join keys and
// the keys' value.Hash.
type keyedRows struct {
	rows   []value.Value
	keys   []value.Value
	hashes []uint64
}

// evalKeys computes key(row) and its value.Hash for every row with a pool of
// workers, so that partitioning and the partition tables never hash a key
// twice. The rows are split into contiguous chunks, one per worker, so no
// locking is needed on the result slices.
func evalKeys(ctx *Ctx, rows []value.Value, key Scalar, workers int) (keyedRows, error) {
	k := keyedRows{rows: rows, keys: make([]value.Value, len(rows)), hashes: make([]uint64, len(rows))}
	if len(rows) == 0 {
		return k, nil
	}
	w := min(Parallelism(workers), len(rows))
	chunk := (len(rows) + w - 1) / w
	errs := make([]error, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			for r := lo; r < hi; r++ {
				v, err := key.Eval(ctx, rows[r])
				if err != nil {
					errs[i] = err
					return
				}
				k.keys[r], k.hashes[r] = v, value.Hash(v)
			}
		}(i, i*chunk, min((i+1)*chunk, len(rows)))
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return keyedRows{}, err
		}
	}
	return k, nil
}

// partition groups row indices by key hash mod p, in row order, carving the
// partitions out of one array sized by a counting pass.
func partition(hashes []uint64, p int) [][]int {
	var small [16]int // p is a core count: the counters stay on the stack
	sizes := append(small[:0], make([]int, p)...)
	for _, h := range hashes {
		sizes[h%uint64(p)]++
	}
	flat := make([]int, len(hashes))
	parts := make([][]int, p)
	for i, n := range sizes {
		parts[i], flat = flat[:0:n], flat[n:]
	}
	for i, h := range hashes {
		parts[h%uint64(p)] = append(parts[h%uint64(p)], i)
	}
	return parts
}

// PartitionedHashJoin is the Grace-style parallel variant of HashJoin: both
// operands are hash-partitioned on their join keys into Partitions buckets;
// each bucket is then built and probed by its own goroutine, with results
// merged through a bounded channel. All join kinds are supported with the
// same semantics as the serial HashJoin, including the optional residual
// predicate and the nestjoin's per-left-row grouping.
type PartitionedHashJoin struct {
	Kind       adl.JoinKind
	L, R       Operator
	LVar, RVar string
	LKey, RKey Scalar
	Residual   *Scalar
	As         string
	RFun       *Scalar
	// Partitions is the partition/goroutine count; <=0 means NumCPU.
	Partitions int
}

// Open drains and partitions both inputs, then launches one build+probe
// worker per partition.
func (j PartitionedHashJoin) Open(ctx *Ctx) (Rows, error) {
	p := Parallelism(j.Partitions)
	lkey, rkey := joinKeys(j.LKey, j.RKey)

	rrows, err := drain(j.R, ctx)
	if err != nil {
		return nil, err
	}
	r, err := evalKeys(ctx, rrows, rkey, p)
	if err != nil {
		return nil, err
	}
	lrows, err := drain(j.L, ctx)
	if err != nil {
		return nil, err
	}
	l, err := evalKeys(ctx, lrows, lkey, p)
	if err != nil {
		return nil, err
	}
	rparts := partition(r.hashes, p)
	lparts := partition(l.hashes, p)

	merge := newParMerge()
	for i := 0; i < p; i++ {
		merge.wg.Add(1)
		go func(li, ri []int) {
			defer merge.wg.Done()
			if err := j.joinPartition(ctx, merge, l, li, r, ri); err != nil {
				merge.fail(err)
			}
		}(lparts[i], rparts[i])
	}
	go func() {
		merge.wg.Wait()
		close(merge.out)
	}()
	return merge, nil
}

// joinPartition builds a hash table over one right partition and probes it
// with the matching left partition, sending result rows to the merge channel
// a chunk at a time. It returns early, without error, once the pipeline
// aborts.
func (j PartitionedHashJoin) joinPartition(ctx *Ctx, merge *parMerge, lk keyedRows, li []int, rk keyedRows, ri []int) error {
	out := chunkWriter{m: merge, ch: merge.out}
	em := newJoinEmit(ctx, j.Kind, "partitioned hash join", j.Residual, j.RFun, j.As, rk.rows)
	hashes := make([]uint64, len(ri))
	for i, r := range ri {
		hashes[i] = rk.hashes[r]
	}
	table := value.NewIndex(hashes)
	for _, l := range li {
		if err := em.begin(lk.rows[l]); err != nil {
			return err
		}
		for i := table.First(lk.hashes[l]); i >= 0; i = table.Next(i) {
			r := ri[i]
			if !value.Equal(rk.keys[r], lk.keys[l]) {
				continue
			}
			if em.match(rk.rows[r]) {
				break
			}
		}
		if err := em.end(); err != nil {
			return err
		}
		if len(em.out) >= chunkRows {
			out.buf, em.out = em.out, nil
			if !out.flush() {
				return nil
			}
		}
	}
	out.buf = em.out
	out.flush()
	return nil
}

// pooled is the stream of ParallelMap and ParallelFilter: the child's rows
// fanned out to a worker pool applying a rowFn, merged through a bounded
// channel. The child's stream is pulled from a single feeder goroutine,
// respecting the single-threaded Rows contract.
type pooled struct {
	*parMerge
	src Rows
}

// pool runs child and applies fn to its rows on workers goroutines (<=0:
// NumCPU); workers drop rows with keep=false.
func (c *Ctx) pool(child Operator, workers int, fn rowFn) (Rows, error) {
	src, err := c.open(child)
	if err != nil {
		return nil, err
	}
	merge := newParMerge()
	in := make(chan []value.Value, mergeChunks)

	merge.wg.Add(1)
	go func() { // feeder: sole caller of src.Next
		defer merge.wg.Done()
		defer close(in)
		feed := chunkWriter{m: merge, ch: in}
		defer feed.flush()
		for {
			row, ok, err := src.Next()
			if err != nil {
				merge.fail(err)
				return
			}
			if !ok || !feed.emit(row) {
				return
			}
		}
	}()

	w := Parallelism(workers)
	var workerWG sync.WaitGroup
	for i := 0; i < w; i++ {
		merge.wg.Add(1)
		workerWG.Add(1)
		go func() {
			defer merge.wg.Done()
			defer workerWG.Done()
			out := chunkWriter{m: merge, ch: merge.out}
			defer out.flush()
			for chunk := range in {
				for _, row := range chunk {
					res, keep, err := fn(c, row)
					if err != nil {
						merge.fail(err)
						return
					}
					if keep && !out.emit(res) {
						return
					}
				}
			}
		}()
	}
	go func() {
		workerWG.Wait()
		close(merge.out)
	}()
	return &pooled{parMerge: merge, src: src}, nil
}

// Close tears down the pool, then closes the child's stream.
func (p *pooled) Close() error {
	p.teardown()
	return p.src.Close()
}

// ParallelMap is α with the body evaluated by a worker pool; order is not
// preserved.
type ParallelMap struct {
	Child Operator
	Var   string
	Body  Scalar
	// Workers is the pool size; <=0 means NumCPU.
	Workers int
}

// Open starts the pool over the child's rows.
func (m ParallelMap) Open(ctx *Ctx) (Rows, error) {
	return ctx.pool(m.Child, m.Workers, m.Body.image)
}

// ParallelFilter is σ with the predicate evaluated by a worker pool; order is
// not preserved.
type ParallelFilter struct {
	Child Operator
	Var   string
	Pred  Scalar
	// Workers is the pool size; <=0 means NumCPU.
	Workers int
}

// Open starts the pool over the child's rows.
func (f ParallelFilter) Open(ctx *Ctx) (Rows, error) {
	return ctx.pool(f.Child, f.Workers, f.Pred.keep)
}
