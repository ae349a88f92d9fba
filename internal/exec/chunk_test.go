package exec

import (
	"fmt"
	"runtime"
	"strings"
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

// TestChunkedExchangeSizes runs every operator with a parallel count at each
// share boundary against the same operator serial: the streams must hand up
// the same rows in the same order. It also checks that no goroutine is left
// behind.
func TestChunkedExchangeSizes(t *testing.T) {
	pred := NewScalar(adl.CmpE(adl.Lt, adl.Dot(adl.V("x"), "b"), adl.C(value.Int(90))), "x")
	body := NewScalar(adl.Tup("s", adl.Dot(adl.V("x"), "a")), "x")
	lkey := NewScalar(adl.Dot(adl.V("x"), "b"), "x")
	rkey := NewScalar(adl.Dot(adl.V("y"), "d"), "y")
	scan := func(table string) Operator { return &Scan{Table: table} }
	type pair struct {
		name             string
		parallel, serial Operator
	}
	for _, w := range []int{2, 3, 5, 8} {
		pairs := []pair{
			{"Filter",
				&Filter{Child: scan("L"), Var: "x", Pred: pred, Workers: w},
				&Filter{Child: scan("L"), Var: "x", Pred: pred, Workers: 1}},
			{"MapOp",
				&MapOp{Child: scan("L"), Var: "x", Body: body, Workers: w},
				&MapOp{Child: scan("L"), Var: "x", Body: body, Workers: 1}},
		}
		for _, k := range []adl.JoinKind{adl.Inner, adl.Semi, adl.Anti, adl.NestJ, adl.Outer} {
			if w > 5 {
				break
			}
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

// TestChunkedExchangeLifecycle covers a parallel operator's exits: a share
// failing while others emit — the first failing row decides the error, as in
// a serial run — Close after a single Next, and re-Open of the same instance
// after that Close.
func TestChunkedExchangeLifecycle(t *testing.T) {
	d := chunkDB(manyRows)
	base := runtime.NumGoroutine()

	// Row 300 has no attribute b and row 2000 is no tuple: every run must
	// fail with row 300's error, whichever share fails first.
	rows := make([]value.Value, manyRows)
	for i := range rows {
		rows[i] = value.NewTuple("a", value.Int(int64(i)), "b", value.Int(1))
	}
	rows[300] = value.NewTuple("a", value.Int(300))
	rows[2000] = value.Int(2000)
	d.Tables["BAD"] = value.NewSet(rows...)
	pred := NewScalar(adl.EqE(adl.Dot(adl.V("x"), "b"), adl.C(value.Int(1))), "x")
	_, want := Collect(&Filter{Child: &Scan{Table: "BAD"}, Var: "x", Pred: pred}, &Ctx{DB: d})
	if want == nil || !strings.Contains(want.Error(), `no attribute "b"`) {
		t.Fatalf("serial Filter over BAD: got %v, want row 300's error", want)
	}
	for _, w := range []int{2, 3, 5} {
		pf := &Filter{Child: &Scan{Table: "BAD"}, Var: "x", Pred: pred, Workers: w}
		for range 10 {
			if _, err := Collect(pf, &Ctx{DB: d}); err == nil || err.Error() != want.Error() {
				t.Fatalf("Filter at %d workers: got %v, want the serial %v", w, err, want)
			}
		}
		settled(t, "failed parallel Filter", base)
	}

	ops := map[string]Operator{
		"Filter": &Filter{Child: &Scan{Table: "L"}, Var: "x", Workers: 3,
			Pred: NewScalar(adl.CBool(true), "x")},
		"MapOp": &MapOp{Child: &Scan{Table: "L"}, Var: "x", Workers: 3,
			Body: NewScalar(adl.Dot(adl.V("x"), "a"), "x")},
		"HashJoin": &HashJoin{Kind: adl.Outer,
			L: &Scan{Table: "L"}, R: &Scan{Table: "R"}, LVar: "x", RVar: "y", Workers: 3,
			LKey: NewScalar(adl.Dot(adl.V("x"), "b"), "x"),
			RKey: NewScalar(adl.Dot(adl.V("y"), "d"), "y")},
	}
	for name, op := range ops {
		ctx := &Ctx{DB: d}
		rows, err := op.Open(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := rows.Next(); !ok || err != nil {
			t.Fatalf("%s: first Next: %v, %v", name, ok, err)
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		settled(t, name+" closed after one Next", base)
		full := collect(t, op, d) // re-Open of the same instance
		if again := collect(t, op, d); full.Len() < manyRows || !value.Equal(again, full) {
			t.Errorf("%s: re-Open after Close returned %d rows, then %d", name, full.Len(), again.Len())
		}
		settled(t, name+" re-opened", base)
	}
}
