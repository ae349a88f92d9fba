package exec

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/adl"
	"repro/internal/eval"
	"repro/internal/storage"
	"repro/internal/value"
)

// scalarDB is the universe of the scalar tests: x ranges over rows with an
// int, a string, a date, a set of (k, w) tuples, a reference to a stored
// object and a dangling one; y over flat (c, d) rows; PART is a table for the
// delegated iterators to scan.
func scalarDB() (d *storage.MemDB, xs, ys []value.Value) {
	parts := value.EmptySet()
	for i := 0; i < 4; i++ {
		p := value.NewTuple("pid", value.OID(10+i), "price", value.Int(int64(10*i)))
		parts.Add(p)
		ys = append(ys, value.NewTuple("c", value.Int(int64(i)), "d", value.Int(int64(i%2))))
	}
	d = storage.NewMemDB("PART", parts)
	for _, p := range parts.Elems() {
		d.Objs[p.(*value.Tuple).MustGet("pid").(value.OID)] = p.(*value.Tuple)
	}
	for i := 0; i < 4; i++ {
		set := value.EmptySet()
		for j := 0; j < i; j++ {
			set.Add(value.NewTuple("k", value.Int(int64(j)), "w", value.Int(int64(i))))
		}
		xs = append(xs, value.NewTuple("a", value.Int(int64(i)), "s", value.String("s"),
			"date", value.Date(940100+int32(i)), "parts", set,
			"ref", value.OID(10+i), "lost", value.OID(99)))
	}
	return d, xs, ys
}

// exprGen draws scalar expressions over x and y. Operands are drawn by the
// kind an operator wants, with a small chance of any kind instead, so most
// expressions evaluate and the rest fail in every way an operator can fail.
type exprGen struct{ r *rand.Rand }

func (g exprGen) pick(names ...string) string { return names[g.r.Intn(len(names))] }

func (g exprGen) any(depth int) adl.Expr {
	switch g.r.Intn(5) {
	case 0:
		return g.int(depth)
	case 1:
		return g.bool(depth)
	case 2:
		return g.tuple(depth)
	case 3:
		return g.set(depth)
	default:
		return adl.Dot(g.tuple(depth), g.pick("s", "date", "ref", "lost", "nope"))
	}
}

func (g exprGen) int(depth int) adl.Expr {
	if g.r.Intn(10) == 0 {
		return g.any(depth - 1)
	}
	if depth <= 0 {
		return adl.CInt(int64(g.r.Intn(4)))
	}
	switch g.r.Intn(5) {
	case 0:
		return adl.CInt(int64(g.r.Intn(4)))
	case 1:
		return adl.Dot(g.tuple(depth-1), g.pick("a", "c", "d", "price", "w"))
	case 2:
		return &adl.Arith{Op: adl.ArithOp(g.r.Intn(4)), L: g.int(depth - 1), R: g.int(depth - 1)}
	case 3:
		return adl.AggE(adl.AggOp(g.r.Intn(5)), g.set(depth-1))
	default:
		return adl.Dot(adl.Dot(adl.V("x"), g.pick("ref", "lost")), "price") // path through an oid
	}
}

func (g exprGen) bool(depth int) adl.Expr {
	if g.r.Intn(10) == 0 {
		return g.any(depth - 1)
	}
	if depth <= 0 {
		return adl.CBool(g.r.Intn(2) == 0)
	}
	switch g.r.Intn(7) {
	case 0:
		return adl.CmpE(adl.CmpOp(g.r.Intn(6)), g.int(depth-1), g.int(depth-1)) // =, ≠, <, ≤, >, ≥
	case 1:
		return adl.CmpE(adl.CmpOp(g.r.Intn(12)), g.any(depth-1), g.any(depth-1)) // incl. ∈, ⊂, …
	case 2:
		return adl.NotE(g.bool(depth - 1))
	case 3:
		return adl.AndE(g.bool(depth-1), g.bool(depth-1))
	case 4:
		return adl.OrE(g.bool(depth-1), g.bool(depth-1))
	case 5:
		return adl.CmpE(adl.In, g.tuple(depth-1), g.set(depth-1))
	default: // delegated: a quantifier over the row's set
		return adl.Ex("e", g.set(depth-1), adl.CmpE(adl.Lt, adl.Dot(adl.V("e"), "w"), g.int(depth-1)))
	}
}

func (g exprGen) tuple(depth int) adl.Expr {
	if g.r.Intn(10) == 0 {
		return g.any(depth - 1)
	}
	if depth <= 0 {
		return adl.V(g.pick("x", "x", "y", "y", "unbound"))
	}
	switch g.r.Intn(6) {
	case 0:
		return adl.V(g.pick("x", "y"))
	case 1:
		return adl.SubT(g.tuple(depth-1), g.pick("a", "c", "s"), g.pick("a", "d", "parts")) // may repeat or miss
	case 2:
		return adl.Tup(g.pick("p", "q"), g.any(depth-1), g.pick("q", "r"), g.int(depth-1)) // may repeat
	case 3:
		return adl.Exc(g.tuple(depth-1), g.pick("a", "z"), g.any(depth-1))
	case 4:
		return adl.Cat(g.tuple(depth-1), g.tuple(depth-1)) // x ∘ y fine, x ∘ x conflicts
	default:
		return adl.Dot(adl.V("x"), g.pick("ref", "lost")) // an oid in tuple position
	}
}

func (g exprGen) set(depth int) adl.Expr {
	if g.r.Intn(10) == 0 {
		return g.any(depth - 1)
	}
	switch g.r.Intn(4) {
	case 0:
		return adl.Dot(adl.V("x"), "parts")
	case 1: // delegated: a selection over a base table
		return adl.Sel("p", adl.CmpE(adl.Lt, adl.Dot(adl.V("p"), "price"), g.int(depth-1)), adl.T("PART"))
	case 2: // delegated: a set literal
		return adl.SetOf(g.int(depth-1), g.int(depth-1))
	default:
		return adl.C(value.NewSet(value.Int(1), value.Int(2)))
	}
}

// sameOutcome holds a compiled evaluation to the interpreter's: the same
// value, or the same error text.
func sameOutcome(t *testing.T, e adl.Expr, got value.Value, gotErr error, want value.Value, wantErr error) {
	t.Helper()
	switch {
	case gotErr != nil && wantErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: compiled fails with %q, eval with %q", e, gotErr, wantErr)
		}
	case gotErr != nil || wantErr != nil:
		t.Fatalf("%s: compiled (%v, %v), eval (%v, %v)", e, got, gotErr, want, wantErr)
	case !value.Equal(got, want):
		t.Fatalf("%s: compiled %v, eval %v", e, got, want)
	}
}

// TestCompiledScalarMatchesEval evaluates random expressions both ways over
// every (x, y) pair.
func TestCompiledScalarMatchesEval(t *testing.T) {
	d, xs, ys := scalarDB()
	ctx := &Ctx{DB: d}
	values, failures := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		g := exprGen{rand.New(rand.NewSource(seed))}
		for i := 0; i < 50; i++ {
			e := g.any(3)
			s := NewScalar(e, "x", "y")
			for _, x := range xs {
				for _, y := range ys {
					got, gotErr := s.Eval(ctx, x, y)
					want, wantErr := eval.Eval(e, (*eval.Env)(nil).Bind("x", x).Bind("y", y), d)
					sameOutcome(t, e, got, gotErr, want, wantErr)
					if wantErr == nil {
						values++
					} else {
						failures++
					}
				}
			}
		}
	}
	if values < 5000 || failures < 5000 {
		t.Errorf("generator drew %d evaluations and %d failures; want thousands of each", values, failures)
	}
}

// TestCompiledScalarVariables pins slot resolution: the later of two equal
// names wins, a scalar variable shadows the outer environment, and a name that
// is neither is looked up there.
func TestCompiledScalarVariables(t *testing.T) {
	ctx := &Ctx{DB: storage.NewMemDB(), Env: (*eval.Env)(nil).Bind("x", value.Int(0)).Bind("o", value.Int(9))}
	for _, c := range []struct {
		e    adl.Expr
		vars []string
		want value.Value
	}{
		{adl.V("x"), []string{"x", "x"}, value.Int(2)},
		{adl.V("x"), []string{"x", "y"}, value.Int(1)},
		{adl.V("o"), []string{"x", "y"}, value.Int(9)},
		{adl.Ex("e", adl.SetOf(adl.V("o")), adl.EqE(adl.V("e"), adl.CInt(1))), []string{"o", "x"}, value.Bool(true)}, // delegated
	} {
		got, err := NewScalar(c.e, c.vars...).Eval(ctx, value.Int(1), value.Int(2))
		if err != nil || !value.Equal(got, c.want) {
			t.Errorf("%s over %v = %v, %v; want %v", c.e, c.vars, got, err, c.want)
		}
	}
}

// TestCompiledScalarErrorParity names the failures a query can hit at run
// time and requires the interpreter's text for each.
func TestCompiledScalarErrorParity(t *testing.T) {
	d, xs, ys := scalarDB()
	x, y := xs[1], ys[1]
	for _, c := range []struct {
		e    adl.Expr
		text string
	}{
		{adl.Dot(adl.V("x"), "nope"), `has no attribute "nope"`},
		{adl.Dot(adl.Dot(adl.V("x"), "a"), "b"), "field access .b on int"},
		{adl.CmpE(adl.Lt, adl.Dot(adl.V("x"), "a"), adl.Dot(adl.V("x"), "s")), "ordered comparison < on int and string"},
		{adl.V("z"), `unbound variable "z"`},
		{adl.Dot(adl.Dot(adl.V("x"), "lost"), "price"), "dangling oid"},
		{adl.SubT(adl.V("x"), "a", "a"), `subscript repeats attribute "a"`},
		{adl.AndE(adl.CBool(true), adl.CInt(1)), "∧ requires a boolean, got int"},
		{adl.AggE(adl.Max, adl.Dot(adl.V("x"), "a")), "max requires a set operand, got int"},
	} {
		_, wantErr := eval.Eval(c.e, (*eval.Env)(nil).Bind("x", x).Bind("y", y), d)
		_, gotErr := NewScalar(c.e, "x", "y").Eval(&Ctx{DB: d}, x, y)
		if wantErr == nil || !strings.Contains(wantErr.Error(), c.text) {
			t.Errorf("%s: eval fails with %v, want %q", c.e, wantErr, c.text)
		}
		sameOutcome(t, c.e, nil, gotErr, nil, wantErr)
	}
}

// TestCompiledScalarShared has 8 goroutines evaluate one Scalar — as the
// workers of a parallel operator do — and holds each to the interpreter.
func TestCompiledScalarShared(t *testing.T) {
	d, xs, ys := scalarDB()
	e := adl.Tup("n", adl.AggE(adl.Count, adl.Dot(adl.V("x"), "parts")),
		"k", adl.SubT(adl.V("y"), "d"),
		"hit", adl.Ex("e", adl.Dot(adl.V("x"), "parts"), adl.EqE(adl.Dot(adl.V("e"), "k"), adl.Dot(adl.V("y"), "d"))),
		"price", adl.Dot(adl.Dot(adl.V("x"), "ref"), "price"))
	s := NewScalar(e, "x", "y")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := &Ctx{DB: d}
			for i := 0; i < 200; i++ {
				x, y := xs[(w+i)%len(xs)], ys[i%len(ys)]
				got, err := s.Eval(ctx, x, y)
				want, wantErr := eval.Eval(e, (*eval.Env)(nil).Bind("x", x).Bind("y", y), d)
				if err != nil || wantErr != nil || !value.Equal(got, want) {
					t.Errorf("worker %d: compiled (%v, %v), eval (%v, %v)", w, got, err, want, wantErr)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestJoinKeysSingleAttribute: a hash join on x[b] = y[b] keys on the value of
// b instead of a one-field tuple. Its verdicts must be those of the nested
// loop over the predicate as written; keys of different attribute names keep
// their tuples (and never match); a row without the attribute fails with the
// subscript's own error.
func TestJoinKeysSingleAttribute(t *testing.T) {
	l, r := value.EmptySet(), value.EmptySet()
	for i := 0; i < 60; i++ {
		l.Add(value.NewTuple("a", value.Int(int64(i)), "b", value.Int(int64(i%7))))
		r.Add(value.NewTuple("c", value.Int(int64(i)), "b", value.Int(int64(3*(i%4))), "d", value.Int(int64(i%7))))
	}
	d := storage.NewMemDB("L", l, "R", r)
	scan := func(table string) Operator { return &Scan{Table: table} }
	for _, attr := range []string{"b", "d"} {
		lkey, rkey := adl.SubT(adl.V("x"), "b"), adl.SubT(adl.V("y"), attr)
		for _, k := range []adl.JoinKind{adl.Semi, adl.Anti, adl.NestJ} {
			as := ""
			if k == adl.NestJ {
				as = "ys"
			}
			want := collect(t, &NLJoin{Kind: k, L: scan("L"), R: scan("R"), LVar: "x", RVar: "y", As: as,
				Pred: NewScalar(adl.EqE(lkey, rkey), "x", "y")}, d)
			for name, op := range map[string]Operator{
				"HashJoin": &HashJoin{Kind: k, L: scan("L"), R: scan("R"), LVar: "x", RVar: "y", As: as,
					LKey: NewScalar(lkey, "x"), RKey: NewScalar(rkey, "y")},
				"HashJoin on 3 workers": &HashJoin{Kind: k, L: scan("L"), R: scan("R"), LVar: "x", RVar: "y", As: as,
					LKey: NewScalar(lkey, "x"), RKey: NewScalar(rkey, "y"), Workers: 3},
			} {
				if got := collect(t, op, d); !value.Equal(got, want) {
					t.Errorf("%s %v on x[b] = y[%s]: %d rows, nested loop %d", name, k, attr, got.Len(), want.Len())
				}
			}
		}
	}

	key := NewScalar(adl.SubT(adl.V("x"), "b"), "x")
	short := value.NewTuple("a", value.Int(1))
	_, want := key.Eval(&Ctx{DB: d}, short)
	lk, _ := joinKeys(key, NewScalar(adl.SubT(adl.V("y"), "b"), "y"))
	if _, err := lk.Eval(&Ctx{DB: d}, short); want == nil || err == nil || err.Error() != want.Error() {
		t.Errorf("row without the key attribute: %v, subscript reports %v", err, want)
	}
}
