package main

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/value"
)

// outcome counts checks and ops and keeps the first few failure messages.
type outcome struct {
	attempted, failed int
	errs              []string
}

func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.errs) < 10 {
			o.errs = append(o.errs, fmt.Sprintf(format, args...))
		}
	}
}

func (o *outcome) add(p outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.errs = append(o.errs, p.errs...)
	o.errs = o.errs[:min(len(o.errs), 10)]
}

// gateText is the text a query is checked with: a template gets one literal
// from the range the timed ops draw theirs from.
func (w *workload) gateText(q query) string {
	if w.miss {
		return fmt.Sprintf(q.src, missBase+1)
	}
	return q.src
}

// gate runs before anything is timed. On a reduced store (the reference is
// quadratic) every query's planned result must equal the untransformed
// nested-loop evaluation; at full scale the default and the vectorized
// engine must agree, and the row counts they agree on are pinned for the
// checks inside the timed windows.
func gate(w *workload, store bench.Config, o *outcome) (pinned map[string]int, err error) {
	small, err := newStore(reducedStore(store), w.indexed)
	if err != nil {
		return nil, err
	}
	planned := server.New(small, w.opts)
	for _, q := range w.queries() {
		src := w.gateText(q)
		got, err := planned.Query(src)
		if err != nil {
			o.check(false, "gate %s: %v", q.name, err)
			continue
		}
		ref, err := core.Prepare(src, small.Catalog())
		if err != nil {
			o.check(false, "gate %s: %v", q.name, err)
			continue
		}
		want, err := ref.ExecuteNaive(small)
		o.check(err == nil && value.Equal(got.Set, want), "gate %s: planned result differs from nested-loop evaluation (%v)", q.name, err)
	}

	full, err := newStore(store, w.indexed)
	if err != nil {
		return nil, err
	}
	scalar, vectorized := server.New(full, server.Options{}), server.New(full, server.Options{Vectorized: true})
	pinned = map[string]int{}
	for _, q := range w.queries() {
		src := w.gateText(q)
		a, errA := scalar.Query(src)
		b, errB := vectorized.Query(src)
		if errA != nil || errB != nil {
			o.check(false, "gate %s: default: %v, vectorized: %v", q.name, errA, errB)
			continue
		}
		o.check(value.Equal(a.Set, b.Set), "gate %s: default and vectorized engine disagree (%d vs %d rows)", q.name, a.Set.Len(), b.Set.Len())
		pinned[q.name] = a.Set.Len()
	}
	return pinned, nil
}
