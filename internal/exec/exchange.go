package exec

import (
	"sync"
	"sync/atomic"

	"repro/internal/col"
)

// exchBatch is a batch in flight through an exchange channel plus the
// plumbing to return its selection buffer: buf is b.Sel's whole backing
// buffer and recycle is the owning worker's free list. The consumer sends
// buf back on recycle (non-blocking — a full pool just drops the buffer to
// the GC) once it is done with the batch, so steady-state execution cycles
// a fixed set of selection buffers instead of allocating per batch.
type exchBatch struct {
	b       Batch
	buf     []int32
	recycle chan []int32
}

// VecExchange is the morsel-driven parallel front of the batch pipeline: it
// splits the source scan's columnar projection into contiguous selection-
// vector morsels claimed from a shared atomic cursor, applies the filter
// kernels worker-local, and exchanges whole batches over one bounded
// channel. Workers own per-worker buffer pools, so the hot path does one
// channel send per batch — never per tuple.
//
// The source must be a VecScan: the exchange bypasses its NextBatch and
// reads the opened projection directly, claiming row ranges instead.
type VecExchange struct {
	Src *VecScan
	// Kernels are the filter predicates, applied in order to each morsel.
	Kernels []VecCmp
	// Workers is the worker count; at most 1 is one worker.
	Workers int
	// Morsel is the rows claimed per cursor bump; <=0 uses the scan's
	// batch size (or DefaultBatchSize).
	Morsel int
}

// exchanged is the stream of a VecExchange: the workers' shared cursor, the
// exchange channel and the consumer's current batch.
type exchanged struct {
	ctx     *Ctx
	kernels []VecCmp
	cursor  atomic.Int64
	out     chan exchBatch
	abort   chan struct{}
	wg      sync.WaitGroup
	mu      sync.Mutex
	err     error
	stopped bool
	cur     exchBatch
}

// OpenVec opens the source scan and launches the workers plus a completion
// goroutine that closes the source once every worker is done and then
// closes the output stream.
func (e VecExchange) OpenVec(ctx *Ctx) (Batches, error) {
	src, err := ctx.openVec(e.Src)
	if err != nil {
		return nil, err
	}
	w := max(e.Workers, 1)
	morsel := e.Morsel
	if morsel <= 0 {
		morsel = e.Src.Batch
	}
	if morsel <= 0 {
		morsel = DefaultBatchSize
	}
	x := &exchanged{ctx: ctx, kernels: e.Kernels,
		out: make(chan exchBatch, 2*w), abort: make(chan struct{})}
	proj := src.(projected).projection()
	n := proj.Len()
	for i := 0; i < w; i++ {
		x.wg.Add(1)
		pool := make(chan []int32, 4)
		go x.worker(proj, n, morsel, pool)
	}
	// Close ownership of the scan's stream transfers to the worker group:
	// this goroutine releases it the moment the last worker finishes (not
	// when the consumer gets around to CloseVec), surfacing any close error
	// at stream end.
	go func() {
		x.wg.Wait()
		if cerr := src.CloseVec(); cerr != nil {
			x.fail(cerr)
		}
		close(x.out)
	}()
	return x, nil
}

// worker claims morsels until the cursor passes the end, an error is
// recorded, or the consumer aborts.
func (e *exchanged) worker(proj *col.Proj, n, morsel int, pool chan []int32) {
	defer e.wg.Done()
	for {
		lo := int(e.cursor.Add(int64(morsel))) - morsel
		if lo >= n {
			return
		}
		hi := lo + morsel
		if hi > n {
			hi = n
		}
		var buf []int32
		select {
		case buf = <-pool:
		default:
			buf = make([]int32, morsel)
		}
		sel := buf[:hi-lo]
		for i := range sel {
			sel[i] = int32(lo + i)
		}
		ok := true
		for ki := range e.kernels {
			var err error
			if sel, err = e.kernels[ki].apply(e.ctx, proj, sel); err != nil {
				e.fail(err)
				return
			}
			if len(sel) == 0 {
				ok = false
				break
			}
		}
		if !ok || len(sel) == 0 {
			select {
			case pool <- buf:
			default:
			}
			continue
		}
		select {
		case e.out <- exchBatch{b: Batch{Proj: proj, Sel: sel}, buf: buf, recycle: pool}:
		case <-e.abort:
			return
		}
	}
}

// NextBatch recycles the previous batch's buffer and receives the next one.
// Batch order is whatever the workers produce — the morsel cursor hands out
// ranges in order, but completion interleaves.
func (e *exchanged) NextBatch() (Batch, bool, error) {
	if e.cur.buf != nil {
		select {
		case e.cur.recycle <- e.cur.buf:
		default:
		}
		e.cur = exchBatch{}
	}
	eb, ok := <-e.out
	if !ok {
		e.mu.Lock()
		defer e.mu.Unlock()
		return Batch{}, false, e.err
	}
	e.cur = eb
	return eb.b, true, nil
}

// CloseVec aborts the workers, drains the stream (so the completion
// goroutine's source close always runs before return), and reports any
// recorded error. The scan's stream itself was closed by the worker group.
func (e *exchanged) CloseVec() error {
	e.stop()
	for range e.out {
	}
	e.cur = exchBatch{}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// fail records the first error and aborts the exchange.
func (e *exchanged) fail(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
	e.stop()
}

// stop closes the abort channel exactly once.
func (e *exchanged) stop() {
	e.mu.Lock()
	if !e.stopped {
		e.stopped = true
		close(e.abort)
	}
	e.mu.Unlock()
}
