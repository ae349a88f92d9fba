// Parallel execution: the plumbing of HashJoin with Partitions > 1 (the
// right operand split by key hash into that many tables, probed by as many
// workers with a contiguous share of the left rows each) and of Filter and
// MapOp with Workers > 1 (a worker pool). The paper's argument is that
// rewriting nested loops into explicit joins lets the optimizer pick
// efficient join implementations (§5.1); on modern hardware "efficient"
// includes exploiting every core. A left row's matches — and therefore its
// semi/anti/nest/outer verdict — are decided by the one worker that probes
// it, so the workers need not coordinate beyond the merge.
//
// The count is a field of the node, written by the planner; at most one runs
// the operator on the caller's goroutine. A parallel run keeps the Operator
// contract: Open launches the workers and returns the merge as the run's
// stream, whose Next hands up merged results from a bounded channel and whose
// Close tears the pipeline down. Result order is nondeterministic, which is
// harmless under the algebra's set semantics.
package exec

import (
	"runtime"
	"sync"

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

// Parallelism resolves a parallelism knob: n if positive, else GOMAXPROCS —
// the CPUs the scheduler actually runs goroutines on, which a process may
// hold below NumCPU. The planner resolves it once per plan and writes the
// count into every node; no operator consults it.
func Parallelism(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
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

// keyedRows are the build side of a join: its rows, their evaluated join keys
// and the keys' value.Hash.
type keyedRows struct {
	rows   []value.Value
	keys   []value.Value
	hashes []uint64
}

// evalKeys computes key(row) and its value.Hash for every row, so that
// partitioning and the tables never hash a key twice, on up to workers
// goroutines (inShares): each writes its own range of the result slices, so
// none needs a lock, and the first failing row decides the error.
func evalKeys(ctx *Ctx, rows []value.Value, key Scalar, workers int) (keyedRows, error) {
	k := keyedRows{rows: rows, keys: make([]value.Value, len(rows)), hashes: make([]uint64, len(rows))}
	err := inShares(len(rows), workers, func(_, lo, hi int) error {
		for r := lo; r < hi; r++ {
			v, err := key.Eval(ctx, rows[r])
			if err != nil {
				return err
			}
			k.keys[r], k.hashes[r] = v, value.Hash(v)
		}
		return nil
	})
	if err != nil {
		return keyedRows{}, err
	}
	return k, nil
}

// inShares runs span over [0, n) in contiguous shares, the i-th share
// [lo, hi) in order: inline for one worker, else on min(workers, n)
// goroutines, one share each. The error is the first failing share's, so
// where span stops at its first failure it is the one a serial run over
// [0, n) meets first.
func inShares(n, workers int, span func(i, lo, hi int) error) error {
	w := min(workers, n)
	if w <= 1 {
		return span(0, 0, n)
	}
	share := (n + w - 1) / w
	errs := make([]error, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			errs[i] = span(i, lo, hi)
		}(i, min(i*share, n), min((i+1)*share, n))
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pooled is the stream of Filter and MapOp with Workers > 1: the child's rows
// fanned out to a worker pool applying a rowFn, merged through a bounded
// channel. The child's stream is pulled from a single feeder goroutine,
// respecting the single-threaded Rows contract.
type pooled struct {
	*parMerge
	src Rows
}

// pool runs child and applies fn of s to its rows on workers goroutines;
// workers drop rows with keep=false. One worker or fewer is the serial
// stream.
func (c *Ctx) pool(child Operator, workers int, s Scalar, fn rowFn[Scalar]) (Rows, error) {
	if workers <= 1 {
		return stream(c, child, s, fn)
	}
	src, err := c.open(child)
	if err != nil {
		return nil, err
	}
	merge := newParMerge()
	in := make(chan []value.Value, mergeChunks)
	shared := s // the workers' copy: s itself stays off the heap when serial

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

	var workerWG sync.WaitGroup
	for i := 0; i < workers; i++ {
		merge.wg.Add(1)
		workerWG.Add(1)
		go func() {
			defer merge.wg.Done()
			defer workerWG.Done()
			out := chunkWriter{m: merge, ch: merge.out}
			defer out.flush()
			for chunk := range in {
				for _, row := range chunk {
					res, keep, err := fn(&shared, c, row)
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
