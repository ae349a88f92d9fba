// Parallel partitioned execution: a Grace-style partitioned hash join and
// worker-pool wrappers for σ and α. The paper's argument is that rewriting
// nested loops into explicit joins lets the optimizer pick efficient join
// implementations (§5.1); on modern hardware "efficient" includes exploiting
// every core. Hash partitioning both operands on the join key makes each
// partition an independent join: equal keys hash equally, so a left row's
// matches — and therefore its semi/anti/nest/outer verdict — are decided
// entirely within its own partition.
//
// All parallel operators preserve the Operator (Open/Next/Close) contract:
// Open launches the workers, Next streams merged results from a bounded
// channel, Close tears the pipeline down. Result order is nondeterministic,
// which is harmless under the algebra's set semantics.
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

// parMerge is the shared fan-in plumbing: workers send chunks of rows into a
// bounded channel, the consumer walks them out of Next, and the first error
// aborts the pipeline.
type parMerge struct {
	out   chan []value.Value
	abort chan struct{}
	once  sync.Once // guards closing abort
	errMu sync.Mutex
	err   error

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

// next implements Operator.Next over the merged stream.
func (m *parMerge) next() (value.Value, bool, error) {
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

// drain tears the pipeline down: abort workers and consume until the merge
// channel is closed so no worker stays blocked on a send.
func (m *parMerge) drain() {
	m.stop()
	for range m.out {
	}
}

// evalKeys computes key(row) for every row with a pool of workers. The rows
// are split into contiguous chunks, one per worker, so no locking is needed
// on the result slice.
func evalKeys(ctx *Ctx, rows []value.Value, key Scalar, workers int) ([]value.Value, error) {
	keys := make([]value.Value, len(rows))
	if len(rows) == 0 {
		return keys, nil
	}
	w := Parallelism(workers)
	if w > len(rows) {
		w = len(rows)
	}
	chunk := (len(rows) + w - 1) / w
	errs := make([]error, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		lo, hi := i*chunk, (i+1)*chunk
		if hi > len(rows) {
			hi = len(rows)
		}
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			for r := lo; r < hi; r++ {
				k, err := key.Eval(ctx, rows[r])
				if err != nil {
					errs[i] = err
					return
				}
				keys[r] = k
			}
		}(i, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return keys, nil
}

// partition groups row indices by hash(key) mod p.
func partition(keys []value.Value, p int) [][]int {
	parts := make([][]int, p)
	for i := range parts {
		parts[i] = make([]int, 0, len(keys)/p)
	}
	for i, k := range keys {
		h := value.Hash(k) % uint64(p)
		parts[h] = append(parts[h], i)
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

	merge *parMerge
	wg    sync.WaitGroup
}

// Open drains and partitions both inputs, then launches one build+probe
// worker per partition.
func (j *PartitionedHashJoin) Open(ctx *Ctx) error {
	p := Parallelism(j.Partitions)
	lkey, rkey := joinKeys(j.LKey, j.RKey)

	rrows, err := drain(j.R, ctx)
	if err != nil {
		return err
	}
	rkeys, err := evalKeys(ctx, rrows, rkey, p)
	if err != nil {
		return err
	}
	lrows, err := drain(j.L, ctx)
	if err != nil {
		return err
	}
	lkeys, err := evalKeys(ctx, lrows, lkey, p)
	if err != nil {
		return err
	}
	rparts := partition(rkeys, p)
	lparts := partition(lkeys, p)

	j.merge = newParMerge()
	for i := 0; i < p; i++ {
		j.wg.Add(1)
		go func(li, ri []int) {
			defer j.wg.Done()
			if err := j.joinPartition(ctx, lrows, lkeys, li, rrows, rkeys, ri); err != nil {
				j.merge.fail(err)
			}
		}(lparts[i], rparts[i])
	}
	merge := j.merge
	go func() {
		j.wg.Wait()
		close(merge.out)
	}()
	return nil
}

// joinPartition builds a hash table over one right partition and probes it
// with the matching left partition, sending result rows to the merge channel
// a chunk at a time. It returns early, without error, once the pipeline
// aborts.
func (j *PartitionedHashJoin) joinPartition(ctx *Ctx, lrows, lkeys []value.Value, li []int, rrows, rkeys []value.Value, ri []int) error {
	out := chunkWriter{m: j.merge, ch: j.merge.out}
	em := newJoinEmit(ctx, j.Kind, "partitioned hash join", j.Residual, j.RFun, j.As, rrows)
	hashes := make([]uint64, len(ri))
	for i, r := range ri {
		hashes[i] = value.Hash(rkeys[r])
	}
	table := value.NewIndex(hashes)
	for _, l := range li {
		if err := em.begin(lrows[l]); err != nil {
			return err
		}
		lk := lkeys[l]
		for i := table.First(value.Hash(lk)); i >= 0; i = table.Next(i) {
			r := ri[i]
			if !value.Equal(rkeys[r], lk) {
				continue
			}
			if em.match(rrows[r]) {
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

// Next yields the next joined row from the merge channel.
func (j *PartitionedHashJoin) Next() (value.Value, bool, error) {
	return j.merge.next()
}

// Close aborts any still-running workers and waits for them.
func (j *PartitionedHashJoin) Close() error {
	if j.merge != nil {
		j.merge.drain()
		j.wg.Wait()
		j.merge = nil
	}
	return nil
}

// parPool fans a child operator's rows out to a worker pool applying fn, and
// merges results through a bounded channel. It is the shared engine of
// ParallelMap and ParallelFilter. The child is pulled from a single feeder
// goroutine, respecting the single-threaded Operator contract.
type parPool struct {
	merge *parMerge
	wg    sync.WaitGroup // feeder + workers
}

// start opens the pipeline: fn maps a row to (result, keep); workers drop
// rows with keep=false.
func (p *parPool) start(ctx *Ctx, child Operator, workers int, fn func(*Ctx, value.Value) (value.Value, bool, error)) {
	p.merge = newParMerge()
	in := make(chan []value.Value, mergeChunks)
	merge := p.merge

	p.wg.Add(1)
	go func() { // feeder: sole caller of child.Next
		defer p.wg.Done()
		defer close(in)
		feed := chunkWriter{m: merge, ch: in}
		defer feed.flush()
		for {
			row, ok, err := child.Next()
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
		p.wg.Add(1)
		workerWG.Add(1)
		go func() {
			defer p.wg.Done()
			defer workerWG.Done()
			out := chunkWriter{m: merge, ch: merge.out}
			defer out.flush()
			for chunk := range in {
				for _, row := range chunk {
					res, keep, err := fn(ctx, row)
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
}

// next forwards the merged stream.
func (p *parPool) next() (value.Value, bool, error) { return p.merge.next() }

// stop aborts and waits for the pipeline.
func (p *parPool) stop() {
	if p.merge != nil {
		p.merge.drain()
		p.wg.Wait()
		p.merge = nil
	}
}

// ParallelMap is α with the body evaluated by a worker pool: rows are pulled
// from the child by a feeder goroutine, mapped concurrently, and merged
// through a bounded channel.
type ParallelMap struct {
	Child Operator
	Var   string
	Body  Scalar
	// Workers is the pool size; <=0 means NumCPU.
	Workers int

	pool parPool
}

// Open opens the child and starts the pool.
func (m *ParallelMap) Open(ctx *Ctx) error {
	if err := m.Child.Open(ctx); err != nil {
		return err
	}
	m.pool.start(ctx, m.Child, m.Workers, func(ctx *Ctx, row value.Value) (value.Value, bool, error) {
		v, err := m.Body.Eval(ctx, row)
		return v, true, err
	})
	return nil
}

// Next yields the image of some input row; order is not preserved.
func (m *ParallelMap) Next() (value.Value, bool, error) { return m.pool.next() }

// Close tears down the pool and closes the child.
func (m *ParallelMap) Close() error {
	m.pool.stop()
	return m.Child.Close()
}

// ParallelFilter is σ with the predicate evaluated by a worker pool.
type ParallelFilter struct {
	Child Operator
	Var   string
	Pred  Scalar
	// Workers is the pool size; <=0 means NumCPU.
	Workers int

	pool parPool
}

// Open opens the child and starts the pool.
func (f *ParallelFilter) Open(ctx *Ctx) error {
	if err := f.Child.Open(ctx); err != nil {
		return err
	}
	f.pool.start(ctx, f.Child, f.Workers, func(ctx *Ctx, row value.Value) (value.Value, bool, error) {
		keep, err := f.Pred.Bool(ctx, row)
		return row, keep, err
	})
	return nil
}

// Next yields some input row satisfying the predicate; order is not
// preserved.
func (f *ParallelFilter) Next() (value.Value, bool, error) { return f.pool.next() }

// Close tears down the pool and closes the child.
func (f *ParallelFilter) Close() error {
	f.pool.stop()
	return f.Child.Close()
}
