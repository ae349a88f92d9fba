package exec

import (
	"errors"
	"runtime"
	"slices"
	"testing"

	"repro/internal/adl"
	"repro/internal/value"
)

// TestPartitionedHashJoinAgainstSerial cross-validates HashJoin at several
// worker counts — serial ones included, and more workers than rows —
// against the interpreter oracle and NLJoin's rows in their order, for every
// join kind over randomized inputs, on keys that make each table: atomic
// ints and unary tuples over them (the int table) and pairs (the
// value.Index).
func TestPartitionedHashJoinAgainstSerial(t *testing.T) {
	kinds := []struct {
		kind adl.JoinKind
		as   string
	}{
		{adl.Inner, ""}, {adl.Semi, ""}, {adl.Anti, ""}, {adl.NestJ, "ys"}, {adl.Outer, ""},
	}
	x, y := adl.V("x"), adl.V("y")
	for seed := int64(1); seed <= 4; seed++ {
		d := db(seed, 40, 30)
		for _, k := range []struct {
			name       string
			lkey, rkey adl.Expr
		}{
			{"int", adl.Dot(x, "b"), adl.Dot(y, "d")},
			{"unary", adl.Tup("k", adl.Dot(x, "b")), adl.Tup("k", adl.Dot(y, "d"))},
			{"pair", adl.Tup("k", adl.Dot(x, "b"), "w", adl.CInt(1)), adl.Tup("k", adl.Dot(y, "d"), "w", adl.CInt(1))},
		} {
			for _, kc := range kinds {
				logical := logicalJoin(kc.kind, kc.as, nil)
				logical.On = adl.EqE(k.lkey, k.rkey)
				want := evalRef(t, logical, d)
				rows := streamed(t, &NLJoin{Kind: kc.kind, L: &Scan{Table: "L"}, R: &Scan{Table: "R"}, LVar: "x", RVar: "y",
					Pred: NewScalar(logical.On, "x", "y"), As: kc.as}, d)
				if !value.Equal(value.NewSetFromSlice(rows), want) {
					t.Fatalf("seed %d %s keys %v: NLJoin %v, the interpreter %v", seed, k.name, kc.kind, rows, want)
				}
				for _, w := range []int{0, 1, 2, 3, 5, 64} {
					pj := &HashJoin{Kind: kc.kind, L: &Scan{Table: "L"}, R: &Scan{Table: "R"}, LVar: "x", RVar: "y",
						LKey: NewScalar(k.lkey, "x"), RKey: NewScalar(k.rkey, "y"), As: kc.as, Workers: w}
					if got := streamed(t, pj, d); !sameRows(got, rows) {
						t.Errorf("seed %d %s keys HashJoin(%d workers) %v: got %v want %v",
							seed, k.name, w, kc.kind, got, rows)
					}
				}
			}
		}
	}
}

// TestPartitionedHashJoinResidualAndRFun is the differential of the one hash
// join: at one and at four workers it equals NLJoin on every kind, with a
// residual predicate and, for the nestjoin, a right-tuple function; a key
// that fails to evaluate fails it with one error at both counts; and at one
// worker Open starts no goroutine.
func TestPartitionedHashJoinResidualAndRFun(t *testing.T) {
	d := db(7, 30, 25)
	resExpr := adl.CmpE(adl.Lt, adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("y"), "c"))
	res := NewScalar(resExpr, "x", "y")
	pred := NewScalar(adl.AndE(joinPred(), resExpr), "x", "y")
	rfun := NewScalar(adl.Dot(adl.V("y"), "c"), "x", "y")
	lkey, rkey := NewScalar(adl.Dot(adl.V("x"), "b"), "x"), NewScalar(adl.Dot(adl.V("y"), "d"), "y")
	for _, kind := range []adl.JoinKind{adl.Inner, adl.Semi, adl.Anti, adl.NestJ, adl.Outer} {
		as, rf := "", (*Scalar)(nil)
		if kind == adl.NestJ {
			as, rf = "cs", &rfun
		}
		want := collect(t, &NLJoin{Kind: kind, L: &Scan{Table: "L"}, R: &Scan{Table: "R"},
			LVar: "x", RVar: "y", Pred: pred, As: as, RFun: rf}, d)
		for _, parts := range []int{1, 4} {
			hj := &HashJoin{Kind: kind, L: &Scan{Table: "L"}, R: &Scan{Table: "R"},
				LVar: "x", RVar: "y", LKey: lkey, RKey: rkey, Residual: &res, As: as, RFun: rf,
				Workers: parts}
			if got := collect(t, hj, d); !value.Equal(got, want) {
				t.Errorf("%v at %d workers: got %v want %v", kind, parts, got, want)
			}
		}
	}

	for _, bad := range []struct{ l, r Scalar }{
		{NewScalar(adl.Dot(adl.V("x"), "nope"), "x"), rkey},
		{lkey, NewScalar(adl.Dot(adl.V("y"), "nope"), "y")},
	} {
		var errs []string
		for _, parts := range []int{1, 4} {
			_, err := Collect(&HashJoin{Kind: adl.Semi, L: &Scan{Table: "L"}, R: &Scan{Table: "R"},
				LVar: "x", RVar: "y", LKey: bad.l, RKey: bad.r, Workers: parts}, &Ctx{DB: d})
			if err == nil {
				t.Fatalf("%d workers: a failing key must fail the join", parts)
			}
			errs = append(errs, err.Error())
		}
		if errs[0] != errs[1] {
			t.Errorf("key error differs by worker count: %q vs %q", errs[0], errs[1])
		}
	}

	serial := &HashJoin{Kind: adl.Inner, L: &Scan{Table: "L"}, R: &Scan{Table: "R"},
		LVar: "x", RVar: "y", LKey: lkey, RKey: rkey, Workers: 1}
	before := runtime.NumGoroutine()
	rows, err := serial.Open(&Ctx{DB: d})
	if err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("a one-worker Open went from %d goroutines to %d", before, after)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionedHashJoinEmptyInputs exercises the degenerate shapes on
// workers.
func TestPartitionedHashJoinEmptyInputs(t *testing.T) {
	d := db(3, 10, 8)
	d.Tables["E"] = value.EmptySet()
	pj := &HashJoin{Kind: adl.Inner,
		L: &Scan{Table: "E"}, R: &Scan{Table: "R"},
		LVar: "x", RVar: "y",
		LKey:    NewScalar(adl.Dot(adl.V("x"), "b"), "x"),
		RKey:    NewScalar(adl.Dot(adl.V("y"), "d"), "y"),
		Workers: 3}
	if got := collect(t, pj, d); got.Len() != 0 {
		t.Errorf("empty left: got %v", got)
	}
	pj = &HashJoin{Kind: adl.Anti,
		L: &Scan{Table: "L"}, R: &Scan{Table: "E"},
		LVar: "x", RVar: "y",
		LKey:    NewScalar(adl.Dot(adl.V("x"), "b"), "x"),
		RKey:    NewScalar(adl.Dot(adl.V("y"), "d"), "y"),
		Workers: 3}
	lt, _ := d.Table("L")
	if got := collect(t, pj, d); got.Len() != lt.Len() {
		t.Errorf("anti join with empty right should keep all left rows, got %d", got.Len())
	}
}

// errAfter yields n rows and then fails, for error-propagation tests.
type errAfter struct {
	n   int
	pos int
}

func (e *errAfter) Open(*Ctx) (Rows, error) { e.pos = 0; return e, nil }
func (e *errAfter) Next() (value.Value, bool, error) {
	if e.pos >= e.n {
		return nil, false, errors.New("child exploded")
	}
	e.pos++
	return value.NewTuple("b", value.Int(int64(e.pos))), true, nil
}
func (e *errAfter) Close() error { return nil }

// TestParallelErrorPropagation checks that errors from children, from scalar
// evaluation and from join keys fail a parallel run.
func TestParallelErrorPropagation(t *testing.T) {
	d := db(5, 20, 10)

	// Child error while the probe side is drained.
	pj := &HashJoin{Kind: adl.Inner,
		L: &errAfter{n: 5}, R: &Scan{Table: "R"},
		LVar: "x", RVar: "y",
		LKey: NewScalar(adl.Dot(adl.V("x"), "b"), "x"),
		RKey: NewScalar(adl.Dot(adl.V("y"), "d"), "y"), Workers: 3}
	if _, err := Collect(pj, &Ctx{DB: d}); err == nil {
		t.Error("a parallel HashJoin should surface child error")
	}

	// Predicate error in a share (field access on missing attribute).
	ps := colScan("L", []string{"nope"}, fieldKernel("nope", adl.Lt, value.Int(1)))
	ps.Workers = 3
	if _, err := Collect(ps, &Ctx{DB: d}); err == nil {
		t.Error("a parallel ColumnScan should surface predicate error")
	}

	// Key error in the parallel join's key evaluation.
	pj = &HashJoin{Kind: adl.Inner,
		L: &Scan{Table: "L"}, R: &Scan{Table: "R"},
		LVar: "x", RVar: "y",
		LKey: NewScalar(adl.Dot(adl.V("x"), "nope"), "x"),
		RKey: NewScalar(adl.Dot(adl.V("y"), "d"), "y"), Workers: 4}
	if _, err := Collect(pj, &Ctx{DB: d}); err == nil {
		t.Error("a parallel HashJoin should surface key error")
	}
}

// TestParallelEarlyClose closes parallel operators' streams after one row,
// twice: Close is idempotent.
func TestParallelEarlyClose(t *testing.T) {
	d := db(11, 3000, 100)
	ctx := &Ctx{DB: d}
	pj := &HashJoin{Kind: adl.Inner,
		L: &Scan{Table: "L"}, R: &Scan{Table: "R"},
		LVar: "x", RVar: "y",
		LKey: NewScalar(adl.Dot(adl.V("x"), "b"), "x"),
		RKey: NewScalar(adl.Dot(adl.V("y"), "d"), "y"), Workers: 8}
	rows, err := pj.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rows.Next(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil { // Close is idempotent
		t.Fatal(err)
	}
}

// TestParallelReopen re-runs one operator instance several times, as the
// benchmark harness does via Collect per iteration.
func TestParallelReopen(t *testing.T) {
	d := db(13, 60, 40)
	pj := &HashJoin{Kind: adl.Semi,
		L: &Scan{Table: "L"}, R: &Scan{Table: "R"},
		LVar: "x", RVar: "y",
		LKey: NewScalar(adl.Dot(adl.V("x"), "b"), "x"),
		RKey: NewScalar(adl.Dot(adl.V("y"), "d"), "y"), Workers: 4}
	want := collect(t, pj, d)
	for i := 0; i < 3; i++ {
		if got := collect(t, pj, d); !value.Equal(got, want) {
			t.Fatalf("reopen %d: got %v want %v", i, got, want)
		}
	}
}

// TestParallelismResolution pins the knob semantics: positive passes
// through, zero and negative mean GOMAXPROCS.
func TestParallelismResolution(t *testing.T) {
	if got := Parallelism(5); got != 5 {
		t.Errorf("Parallelism(5) = %d", got)
	}
	for _, n := range []int{0, -1} {
		if got, want := Parallelism(n), runtime.GOMAXPROCS(0); got != want {
			t.Errorf("Parallelism(%d) = %d, GOMAXPROCS is %d", n, got, want)
		}
	}
}

// TestEvalKeysChunking checks the key evaluation helper across worker counts
// and row counts, including workers > rows, that the hashes it computes in
// its workers are each key's value.Hash, and that a row whose key fails
// fails it with one error at any worker count.
func TestEvalKeysChunking(t *testing.T) {
	d := db(17, 33, 5)
	ctx := &Ctx{DB: d}
	lt, _ := d.Table("L")
	rows := lt.Elems()
	key := NewScalar(adl.Dot(adl.V("x"), "b"), "x")
	want, _, err := evalKeys(ctx, rows, key, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 7, 100} {
		got, hashes, err := evalKeys(ctx, rows, key, w)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range want {
			if !value.Equal(got[i], k) || hashes[i] != value.Hash(k) {
				t.Fatalf("workers=%d key %d: %v != %v or hash %x", w, i, got[i], k, hashes[i])
			}
		}
	}
	if _, _, err := evalKeys(ctx, nil, key, 4); err != nil {
		t.Fatal(err)
	}
	mixed := append(slices.Clone(rows), value.Int(7))
	_, serr := key.Eval(ctx, value.Int(7))
	for _, w := range []int{1, 4} {
		if _, _, err := evalKeys(ctx, mixed, key, w); err == nil || serr == nil || err.Error() != serr.Error() {
			t.Errorf("workers=%d: non-tuple row: %v, the key alone: %v", w, err, serr)
		}
	}
}

// BenchmarkPartitionedVsSerialHashJoin is the in-package microbenchmark pair
// (the root bench_test.go carries the workload-level pairs).
func BenchmarkPartitionedVsSerialHashJoin(b *testing.B) {
	d := db(21, 20000, 20000)
	ctx := &Ctx{DB: d}
	mk := map[string]func() Operator{
		"serial": func() Operator {
			return &HashJoin{Kind: adl.Inner, L: &Scan{Table: "L"}, R: &Scan{Table: "R"},
				LVar: "x", RVar: "y",
				LKey: NewScalar(adl.Dot(adl.V("x"), "b"), "x"),
				RKey: NewScalar(adl.Dot(adl.V("y"), "d"), "y")}
		},
		"parallel": func() Operator {
			return &HashJoin{Kind: adl.Inner, L: &Scan{Table: "L"}, R: &Scan{Table: "R"},
				LVar: "x", RVar: "y",
				LKey:    NewScalar(adl.Dot(adl.V("x"), "b"), "x"),
				RKey:    NewScalar(adl.Dot(adl.V("y"), "d"), "y"),
				Workers: Parallelism(0)}
		},
	}
	for _, name := range []string{"serial", "parallel"} {
		op := mk[name]()
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Collect(op, ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// closeErr yields n rows and then fails on Close, for teardown-error tests.
type closeErr struct {
	n   int
	pos int
}

var errTeardown = errors.New("teardown failed")

func (e *closeErr) Open(*Ctx) (Rows, error) { e.pos = 0; return e, nil }
func (e *closeErr) Next() (value.Value, bool, error) {
	if e.pos >= e.n {
		return nil, false, nil
	}
	e.pos++
	return value.NewTuple("d", value.Int(int64(e.pos%4)), "c", value.Int(int64(e.pos))), true, nil
}
func (e *closeErr) Close() error { return errTeardown }

// TestParallelCloseErrorPropagation checks Close errors surface instead of
// vanishing: a build side failing on teardown fails the parallel join's Open
// (drain semantics), and a child failing on teardown the map's Collect.
func TestParallelCloseErrorPropagation(t *testing.T) {
	d := db(19, 20, 10)
	pj := &HashJoin{Kind: adl.Inner,
		L: &Scan{Table: "L"}, R: &closeErr{n: 8},
		LVar: "x", RVar: "y",
		LKey: NewScalar(adl.Dot(adl.V("x"), "b"), "x"),
		RKey: NewScalar(adl.Dot(adl.V("y"), "d"), "y"), Workers: 3}
	if _, err := Collect(pj, &Ctx{DB: d}); !errors.Is(err, errTeardown) {
		t.Errorf("build-side Close error lost: got %v", err)
	}

	pm := &MapOp{Child: &closeErr{n: 8}, Var: "x",
		Body: NewScalar(adl.Dot(adl.V("x"), "c"), "x")}
	if _, err := Collect(pm, &Ctx{DB: d}); !errors.Is(err, errTeardown) {
		t.Errorf("MapOp child Close error lost: got %v", err)
	}
}

// TestPartitionedHashJoinSinglePartition pins the degeneracy: every count up
// to one is the one serial path, identical to two workers for every kind.
func TestPartitionedHashJoinSinglePartition(t *testing.T) {
	d := db(23, 50, 30)
	for _, kind := range []adl.JoinKind{adl.Inner, adl.Semi, adl.Anti, adl.Outer, adl.NestJ} {
		as := ""
		if kind == adl.NestJ {
			as = "ys"
		}
		join := func(parts int) *HashJoin {
			return &HashJoin{Kind: kind,
				L: &Scan{Table: "L"}, R: &Scan{Table: "R"}, LVar: "x", RVar: "y",
				LKey: NewScalar(adl.Dot(adl.V("x"), "b"), "x"),
				RKey: NewScalar(adl.Dot(adl.V("y"), "d"), "y"), As: as, Workers: parts}
		}
		want := collect(t, join(2), d)
		for _, parts := range []int{-3, 0, 1} {
			if got := collect(t, join(parts), d); !value.Equal(got, want) {
				t.Errorf("%v at %d workers: got %v want %v", kind, parts, got, want)
			}
		}
	}
}

// TestParallelCancelMidPartition opens a join with a large output, closes it
// before reading a row, then reopens the same instance and checks full
// equivalence — an abandoned run must not corrupt operator state.
func TestParallelCancelMidPartition(t *testing.T) {
	d := db(29, 4000, 200)
	ctx := &Ctx{DB: d}
	pj := &HashJoin{Kind: adl.Inner,
		L: &Scan{Table: "L"}, R: &Scan{Table: "R"},
		LVar: "x", RVar: "y",
		LKey: NewScalar(adl.Dot(adl.V("x"), "b"), "x"),
		RKey: NewScalar(adl.Dot(adl.V("y"), "d"), "y"), Workers: 4}
	rows, err := pj.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// No Next at all.
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	want := collect(t, &HashJoin{Kind: adl.Inner,
		L: &Scan{Table: "L"}, R: &Scan{Table: "R"}, LVar: "x", RVar: "y",
		LKey: NewScalar(adl.Dot(adl.V("x"), "b"), "x"),
		RKey: NewScalar(adl.Dot(adl.V("y"), "d"), "y")}, d)
	if got := collect(t, pj, d); !value.Equal(got, want) {
		t.Fatal("post-cancel reopen diverged from serial join")
	}
}
