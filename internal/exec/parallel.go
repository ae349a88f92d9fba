// Parallel execution: HashJoin with Workers > 1 (its build keys evaluated and
// its left rows probed against the one table in that many contiguous shares)
// and ColumnScan with Workers > 1 (the projection's batches in that many
// shares). Every other operator is serial. The paper's argument is that
// rewriting nested loops into explicit joins lets the optimizer pick
// efficient join implementations (§5.1); on modern hardware "efficient"
// includes exploiting every core. A left row's matches — and therefore its
// semi/anti/nest/outer verdict — are decided by the one share that probes
// it, so the shares need not coordinate at all.
//
// The count is a field of the node, written by the planner; at most one runs
// the operator on the caller's goroutine. Both parallel operators run on one
// primitive, inShares: each goroutine writes only its own share's slots, Open
// waits for all of them, and the shares' rows are joined in share order. A
// parallel run is therefore a blocking one whose rows, their order and its
// error are the serial run's, and no goroutine outlives Open.
package exec

import (
	"runtime"
	"slices"
	"sync"

	"repro/internal/value"
)

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

// inShares runs span over [0, n) in contiguous shares, the i-th share
// [lo, hi) in order: inline for one worker, else on min(workers, n)
// goroutines, one share each. It returns the shares' results in share order.
// The error is the first failing share's, so where span stops at its first
// failure it is the one a serial run over [0, n) meets first.
func inShares[T any](n, workers int, span func(lo, hi int) (T, error)) ([]T, error) {
	w := max(min(workers, n), 1)
	outs := make([]T, w)
	if w == 1 {
		var err error
		outs[0], err = span(0, n)
		return outs, err
	}
	share := (n + w - 1) / w
	errs := make([]error, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			outs[i], errs[i] = span(lo, hi)
		}(i, min(i*share, n), min((i+1)*share, n))
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// joined is the stream of the shares' rows in share order up to the first
// share whose rows end in an error (rowBuf.err), then that error: where each
// share stops at its first error, the serial run's rows and error.
func joined(shares []*rowBuf) (Rows, error) {
	last := len(shares) - 1
	for i, s := range shares {
		if s.err != nil {
			last = i
			break
		}
	}
	if last == 0 {
		return shares[0], nil
	}
	rows := make([][]value.Value, last+1)
	var hashes []uint64
	for i := range rows {
		rows[i], hashes = shares[i].out, append(hashes, shares[i].hashes...)
	}
	return &rowBuf{out: slices.Concat(rows...), hashes: hashes, err: shares[last].err}, nil
}
