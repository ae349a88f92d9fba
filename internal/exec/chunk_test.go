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

// settled waits for the goroutine count to come back to base: Close has
// waited for every worker, but the goroutine that closes the merge channel
// behind them may still be returning.
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

// chunkSizes straddle the chunk boundary: nothing to flush, one row, one row
// short of a chunk, exactly one, one over, and many.
var chunkSizes = []int{0, 1, chunkRows - 1, chunkRows, chunkRows + 1, 10 * chunkRows}

// TestChunkedExchangeSizes runs every operator with a parallel count at each
// size against the same operator serial, and checks that it leaves no
// goroutine behind.
func TestChunkedExchangeSizes(t *testing.T) {
	pred := NewScalar(adl.CmpE(adl.Lt, adl.Dot(adl.V("x"), "b"), adl.C(value.Int(90))), "x")
	body := NewScalar(adl.Tup("s", adl.Dot(adl.V("x"), "a")), "x")
	lkey := NewScalar(adl.Dot(adl.V("x"), "b"), "x")
	rkey := NewScalar(adl.Dot(adl.V("y"), "d"), "y")
	for _, n := range chunkSizes {
		d := chunkDB(n)
		scan := func(table string) Operator { return &Scan{Table: table} }
		pairs := []struct {
			name             string
			parallel, serial Operator
		}{
			{"Filter",
				&Filter{Child: scan("L"), Var: "x", Pred: pred, Workers: 4},
				&Filter{Child: scan("L"), Var: "x", Pred: pred, Workers: 1}},
			{"MapOp",
				&MapOp{Child: scan("L"), Var: "x", Body: body, Workers: 4},
				&MapOp{Child: scan("L"), Var: "x", Body: body, Workers: 1}},
		}
		for _, k := range []adl.JoinKind{adl.Inner, adl.Semi, adl.Anti, adl.NestJ, adl.Outer} {
			as := ""
			if k == adl.NestJ {
				as = "ys"
			}
			pairs = append(pairs, struct {
				name             string
				parallel, serial Operator
			}{fmt.Sprintf("HashJoin %v", k),
				&HashJoin{Kind: k, L: scan("L"), R: scan("R"), LVar: "x", RVar: "y",
					LKey: lkey, RKey: rkey, As: as, Partitions: 3},
				&HashJoin{Kind: k, L: scan("L"), R: scan("R"), LVar: "x", RVar: "y",
					LKey: lkey, RKey: rkey, As: as}})
		}
		for _, p := range pairs {
			what := fmt.Sprintf("%s over %d rows", p.name, n)
			base := runtime.NumGoroutine()
			want := collect(t, p.serial, d)
			if got := collect(t, p.parallel, d); !value.Equal(got, want) {
				t.Errorf("%s: %d rows, serial twin %d", what, got.Len(), want.Len())
			}
			settled(t, what, base)
		}
	}
}

// TestChunkedExchangeLifecycle covers the exits that leave a chunk behind: a
// worker failing with its chunk partly filled, Close after a single Next, and
// re-Open of the same instance after that Close.
func TestChunkedExchangeLifecycle(t *testing.T) {
	n := 4*chunkRows + chunkRows/2
	d := chunkDB(n)
	base := runtime.NumGoroutine()

	// Row 100 of the worker's first chunk has no attribute b: the error must
	// win over the 100 rows already emitted into the partly filled chunk.
	rows := make([]value.Value, n)
	for i := range rows {
		rows[i] = value.NewTuple("a", value.Int(int64(i)), "b", value.Int(1))
	}
	rows[100] = value.NewTuple("a", value.Int(100))
	d.Tables["BAD"] = value.NewSet(rows...)
	pf := &Filter{Child: &Scan{Table: "BAD"}, Var: "x", Workers: 2,
		Pred: NewScalar(adl.EqE(adl.Dot(adl.V("x"), "b"), adl.C(value.Int(1))), "x")}
	if _, err := Collect(pf, &Ctx{DB: d}); err == nil || !strings.Contains(err.Error(), `no attribute "b"`) {
		t.Fatalf("worker error with a partly filled chunk: got %v", err)
	}
	settled(t, "failed pooled Filter", base)

	ops := map[string]Operator{
		"Filter": &Filter{Child: &Scan{Table: "L"}, Var: "x", Workers: 3,
			Pred: NewScalar(adl.CBool(true), "x")},
		"MapOp": &MapOp{Child: &Scan{Table: "L"}, Var: "x", Workers: 3,
			Body: NewScalar(adl.Dot(adl.V("x"), "a"), "x")},
		"HashJoin": &HashJoin{Kind: adl.Outer,
			L: &Scan{Table: "L"}, R: &Scan{Table: "R"}, LVar: "x", RVar: "y", Partitions: 3,
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
		if again := collect(t, op, d); full.Len() < n || !value.Equal(again, full) {
			t.Errorf("%s: re-Open after Close returned %d rows, then %d", name, full.Len(), again.Len())
		}
		settled(t, name+" re-opened", base)
	}
}
