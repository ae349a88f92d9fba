package exec

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/adl"
	"repro/internal/storage"
	"repro/internal/value"
)

// chunkDB builds L(a, b) with n rows and R(c, d) with n/2+1 rows whose keys
// b and d overlap on every third value, so each join kind has matched and
// unmatched rows on both sides at every size.
func chunkDB(n int) *storage.MemDB {
	l, r := value.NewSetCap(n), value.NewSetCap(n/2+1)
	for i := 0; i < n; i++ {
		l.Add(value.NewTuple("a", value.Int(int64(i)), "b", value.Int(int64(i%97))))
	}
	for i := 0; i < n/2+1; i++ {
		r.Add(value.NewTuple("c", value.Int(int64(i)), "d", value.Int(int64(3*(i%40)))))
	}
	return storage.NewMemDB("L", l, "R", r)
}

// settled waits for the goroutine count to come back to base: every share
// has finished before Open returns, but its goroutine may still be exiting
// after it signalled its WaitGroup.
func settled(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before it ran", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// manyRows is the row count of the inputs large enough that every share of
// a parallel operator holds hundreds of rows.
const manyRows = 2560

// shareSizes straddle the share boundaries of inShares at w workers: no row,
// one, fewer rows than workers, one share of one row each, one share of two
// rows, and many.
func shareSizes(w int) []int { return []int{0, 1, w - 1, w, w + 1, manyRows} }

// TestChunkedExchangeSizes runs the hash join of every kind on a parallel
// count at each share boundary against the same join serial: the streams
// must hand up the same rows in the same order. It also checks that no
// goroutine is left behind.
func TestChunkedExchangeSizes(t *testing.T) {
	lkey := NewScalar(adl.Dot(adl.V("x"), "b"), "x")
	rkey := NewScalar(adl.Dot(adl.V("y"), "d"), "y")
	scan := func(table string) Operator { return &Scan{Table: table} }
	type pair struct {
		name             string
		parallel, serial Operator
	}
	for _, w := range []int{2, 3, 5} {
		var pairs []pair
		for _, k := range []adl.JoinKind{adl.Inner, adl.Semi, adl.Anti, adl.NestJ, adl.Outer} {
			as := ""
			if k == adl.NestJ {
				as = "ys"
			}
			pairs = append(pairs, pair{fmt.Sprintf("HashJoin %v", k),
				&HashJoin{Kind: k, L: scan("L"), R: scan("R"), LVar: "x", RVar: "y",
					LKey: lkey, RKey: rkey, As: as, Workers: w},
				&HashJoin{Kind: k, L: scan("L"), R: scan("R"), LVar: "x", RVar: "y",
					LKey: lkey, RKey: rkey, As: as}})
		}
		for _, n := range shareSizes(w) {
			d := chunkDB(n)
			for _, p := range pairs {
				what := fmt.Sprintf("%s at %d over %d rows", p.name, w, n)
				base := runtime.NumGoroutine()
				want := streamed(t, p.serial, d)
				got := streamed(t, p.parallel, d)
				if len(got) != len(want) {
					t.Errorf("%s: %d rows, serial twin %d", what, len(got), len(want))
				}
				for i := range min(len(got), len(want)) {
					if !value.Equal(got[i], want[i]) {
						t.Errorf("%s: row %d is %v, serial twin's %v", what, i, got[i], want[i])
						break
					}
				}
				settled(t, what, base)
			}
		}
	}
}

// TestChunkedExchangeLifecycle covers the parallel hash join's exits: Close
// after a single Next, and re-Open of the same instance after that Close.
func TestChunkedExchangeLifecycle(t *testing.T) {
	d := chunkDB(manyRows)
	base := runtime.NumGoroutine()
	op := &HashJoin{Kind: adl.Outer,
		L: &Scan{Table: "L"}, R: &Scan{Table: "R"}, LVar: "x", RVar: "y", Workers: 3,
		LKey: NewScalar(adl.Dot(adl.V("x"), "b"), "x"),
		RKey: NewScalar(adl.Dot(adl.V("y"), "d"), "y")}
	rows, err := op.Open(&Ctx{DB: d})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := rows.Next(); !ok || err != nil {
		t.Fatalf("first Next: %v, %v", ok, err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	settled(t, "closed after one Next", base)
	full := collect(t, op, d) // re-Open of the same instance
	if again := collect(t, op, d); full.Len() < manyRows || !value.Equal(again, full) {
		t.Errorf("re-Open after Close returned %d rows, then %d", full.Len(), again.Len())
	}
	settled(t, "re-opened", base)
}
