package exec

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/adl"
	"repro/internal/eval"
	"repro/internal/storage"
	"repro/internal/value"
)

// scanIndexDB gives a MemDB the index probes IndexNLJoin needs: a lookup is
// a scan of the extent for the rows whose attribute equals the key, in extent
// order.
type scanIndexDB struct{ *storage.MemDB }

func (d scanIndexDB) IndexLookup(extent, attr string, key value.Value) ([]value.Value, error) {
	set, err := d.Table(extent)
	if err != nil {
		return nil, err
	}
	var out []value.Value
	for _, row := range set.Elems() {
		if v, ok := row.(*value.Tuple).Get(attr); ok && value.Equal(v, key) {
			out = append(out, row)
		}
	}
	return out, nil
}

func (d scanIndexDB) IndexExists(extent, attr string, key value.Value) (bool, error) {
	rows, err := d.IndexLookup(extent, attr, key)
	return len(rows) > 0, err
}

func (d scanIndexDB) IndexRange(string, string, value.Value, value.Value, bool, bool) ([]value.Value, error) {
	return nil, fmt.Errorf("no ordered index")
}

// fusedDB holds the left rows L and LD and the right rows R of the fused
// nestjoin tests. L's row 0 has a string v, which fails the select rows that
// add to it; row 1 references a key R lacks; row 2's set is empty; row 3
// meets R's row whose c is a string, which fails an RFun that computes with
// it; row 4 references only a key R lacks. LD's row 1 already holds the
// group attribute ys. R has two rows of key 1.
func fusedDB() scanIndexDB {
	ref := func(ks ...int64) *value.Set {
		s := value.EmptySet()
		for _, k := range ks {
			s.Add(value.NewTuple("k", value.Int(k)))
		}
		return s
	}
	row := func(a, k int64, v value.Value, parts *value.Set) *value.Tuple {
		return value.NewTuple("a", value.Int(a), "k", value.Int(k), "v", v, "parts", parts)
	}
	l := value.NewSet(
		row(0, 1, value.String("bad"), ref(1, 2)),
		row(1, 2, value.Int(1), ref(2, 9)),
		row(2, 3, value.Int(2), ref()),
		row(3, 4, value.Int(3), ref(4)),
		row(4, 9, value.Int(4), ref(9)),
		row(5, 1, value.Int(5), ref(1)),
	)
	ld := value.NewSet(
		row(0, 1, value.String("bad"), ref(1)),
		value.NewTuple("a", value.Int(1), "k", value.Int(2), "v", value.Int(1), "parts", ref(2), "ys", value.Int(0)),
		row(2, 1, value.Int(2), ref(1)),
	)
	item := func(k int64, c value.Value) *value.Tuple { return value.NewTuple("k", value.Int(k), "c", c) }
	r := value.NewSet(item(1, value.Int(10)), item(2, value.Int(20)), item(1, value.Int(11)),
		item(3, value.Int(30)), item(4, value.String("str")))
	return scanIndexDB{storage.NewMemDB("L", l, "LD", ld, "R", r)}
}

// readRows opens op and reads its stream to its end or its error.
func readRows(op Operator, ctx *Ctx) ([]value.Value, error) {
	rows, err := op.Open(ctx)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var out []value.Value
	for {
		row, ok, err := rows.Next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, row)
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestFusedNestJoinEqualsMap holds a nestjoin that builds its select row (Sel)
// to α over the same nestjoin without it, for every join that emits
// nestjoins — HashJoin on a key and on membership (In), NLJoin and
// IndexNLJoin — × select rows that build a tuple or
// not, and that fail on left row 0 or never × RFuns that are absent, read
// only the right row (memoized per build row), fail on left row 3's match,
// or read both rows × left rows with and without the group attribute: the
// same rows in the same order, the same first error, every stream closed
// once, and on every table the reference interpreter's set where they
// succeed, its failure where they fail, and its very error where the left row
// already holds the group attribute. Among them are a select-row error on
// row 1 with a join error on a later row, where the join error wins, empty
// groups and dangling references.
func TestFusedNestJoinEqualsMap(t *testing.T) {
	d := fusedDB()
	x, y, ys := adl.V("x"), adl.V("y"), adl.V("ys")
	bodies := []struct {
		name        string
		body, fused adl.Expr // over x, and over (x, ys)
	}{
		{"tuple", adl.Tup("a", adl.Dot(x, "a"), "g", adl.Dot(x, "ys"), "n", adl.AggE(adl.Count, adl.Dot(x, "ys"))),
			adl.Tup("a", adl.Dot(x, "a"), "g", ys, "n", adl.AggE(adl.Count, ys))},
		{"value", adl.AggE(adl.Count, adl.Dot(x, "ys")), adl.AggE(adl.Count, ys)},
		{"tuple-failing", adl.Tup("v", &adl.Arith{Op: adl.Add, L: adl.Dot(x, "v"), R: adl.CInt(1)}, "g", adl.Dot(x, "ys")),
			adl.Tup("v", &adl.Arith{Op: adl.Add, L: adl.Dot(x, "v"), R: adl.CInt(1)}, "g", ys)},
		{"value-failing", &adl.Arith{Op: adl.Add, L: adl.Dot(x, "v"), R: adl.AggE(adl.Count, adl.Dot(x, "ys"))},
			&adl.Arith{Op: adl.Add, L: adl.Dot(x, "v"), R: adl.AggE(adl.Count, ys)}},
		{"missing-attribute", adl.Tup("w", adl.Dot(x, "nope"), "g", adl.Dot(x, "ys")),
			adl.Tup("w", adl.Dot(x, "nope"), "g", ys)},
	}
	rfun := func(e adl.Expr) *Scalar {
		if e == nil {
			return nil
		}
		s := NewScalar(e, "x", "y")
		return &s
	}
	rfuns := map[string]*Scalar{
		"none":       nil,
		"right-only": rfun(adl.Dot(y, "c")),
		"failing":    rfun(&adl.Arith{Op: adl.Mul, L: adl.Dot(y, "c"), R: adl.CInt(2)}),
		"both-rows":  rfun(adl.Tup("a", adl.Dot(x, "a"), "c", adl.Dot(y, "c"))),
	}
	if !rfuns["right-only"].rightOnly || !rfuns["failing"].rightOnly || rfuns["both-rows"].rightOnly {
		t.Fatal("rightOnly must tell an RFun over y alone from one over both variables")
	}
	member := adl.CmpE(adl.In, adl.SubT(y, "k"), adl.Dot(x, "parts"))
	// reference is the interpreter's α over the nestjoin on pred, the
	// oracle of both arms where they succeed.
	reference := func(left string, pred adl.Expr, rf *Scalar, body adl.Expr) (*value.Set, error) {
		j := &adl.Join{Kind: adl.NestJ, L: adl.T(left), R: adl.T("R"), LVar: "x", RVar: "y", On: pred, As: "ys"}
		if rf != nil {
			j.RFun = rf.Expr
		}
		return eval.EvalSet(adl.MapE("x", body, j), nil, d)
	}
	key := adl.EqE(adl.Dot(x, "k"), adl.Dot(y, "k"))
	joins := func(left string, rf *Scalar) map[string]func(sel *Scalar) Operator {
		out := map[string]func(sel *Scalar) Operator{
			"nl": func(sel *Scalar) Operator {
				return &NLJoin{Kind: adl.NestJ, L: &Scan{Table: left}, R: &Scan{Table: "R"}, LVar: "x", RVar: "y",
					Pred: NewScalar(member, "x", "y"), As: "ys", RFun: rf, Sel: sel}
			},
			"index": func(sel *Scalar) Operator {
				return &IndexNLJoin{Kind: adl.NestJ, L: &Scan{Table: left}, Table: "R", Attr: "k", LVar: "x", RVar: "y",
					LKey: NewScalar(adl.Dot(x, "k"), "x"), As: "ys", RFun: rf, Sel: sel}
			},
		}
		out["hash-key"] = func(sel *Scalar) Operator {
			return &HashJoin{Kind: adl.NestJ, L: &Scan{Table: left}, R: &Scan{Table: "R"}, LVar: "x", RVar: "y",
				LKey: NewScalar(adl.Dot(x, "k"), "x"), RKey: NewScalar(adl.Dot(y, "k"), "y"),
				As: "ys", RFun: rf, Sel: sel}
		}
		out["hash-in"] = func(sel *Scalar) Operator {
			return &HashJoin{Kind: adl.NestJ, L: &Scan{Table: left}, R: &Scan{Table: "R"}, LVar: "x", RVar: "y",
				In: "parts", RKey: NewScalar(adl.SubT(y, "k"), "y"), As: "ys", RFun: rf, Sel: sel}
		}
		return out
	}
	tr := NewTracker()
	outcomes := map[string]int{}
	for _, left := range []string{"L", "LD"} {
		for rname, rf := range rfuns {
			for jname, join := range joins(left, rf) {
				for _, b := range bodies {
					name := fmt.Sprintf("%s %s rfun=%s %s", left, jname, rname, b.name)
					sel := NewScalar(b.fused, "x", "ys")
					fused := join(&sel)
					unfused := &MapOp{Child: join(nil), Var: "x", Body: NewScalar(b.body, "x")}
					frows, ferr := readRows(fused, tr.Ctx(d))
					urows, uerr := readRows(unfused, tr.Ctx(d))
					if !sameRows(frows, urows) || errText(ferr) != errText(uerr) {
						t.Errorf("%s:\nfused   %v, %v\nunfused %v, %v", name, frows, ferr, urows, uerr)
					}
					fset, ferr := Collect(fused, tr.Ctx(d))
					uset, uerr := Collect(unfused, tr.Ctx(d))
					if errText(ferr) != errText(uerr) || (ferr == nil && !value.Equal(fset, uset)) {
						t.Errorf("%s: Collect fused %v, %v; unfused %v, %v", name, fset, ferr, uset, uerr)
					}
					pred := key
					if strings.HasPrefix(jname, "hash-in") || jname == "nl" {
						pred = member
					}
					ref, rerr := reference(left, pred, rf, b.body)
					dup := strings.Contains(errText(uerr), `duplicate attribute "ys"`)
					if (uerr == nil) != (rerr == nil) || uerr == nil && !value.Equal(uset, ref) ||
						dup && errText(rerr) != errText(uerr) {
						t.Errorf("%s: %v, %v; the interpreter %v, %v", name, uset, uerr, ref, rerr)
					}
					if _, problems := tr.Check(); len(problems) > 0 {
						t.Errorf("%s: %v", name, problems)
					}
					switch msg := errText(uerr); {
					case uerr == nil:
						outcomes["rows"]++
					case dup:
						outcomes["group attribute on the left row"]++
					case rname == "failing" || rname == "both-rows" && strings.Contains(msg, "str"):
						outcomes["join error"]++
						if strings.Contains(b.name, "failing") || b.name == "missing-attribute" {
							outcomes["join error after a select-row error"]++
						}
					default:
						outcomes["select-row error"]++
					}
				}
			}
		}
	}
	for _, o := range []string{"rows", "group attribute on the left row", "join error",
		"join error after a select-row error", "select-row error"} {
		if outcomes[o] == 0 {
			t.Errorf("no case ended in %s: %v", o, outcomes)
		}
	}
}

// TestFusedSelectRowErrorPrintsTheExtendedRow: a select row that reads an
// attribute the left row lacks fails with the text of the row α over the
// unfused join reads, the left row extended by its group.
func TestFusedSelectRowErrorPrintsTheExtendedRow(t *testing.T) {
	d := fusedDB()
	sel := NewScalar(adl.Tup("w", adl.Dot(adl.V("x"), "nope")), "x", "ys")
	j := &NLJoin{Kind: adl.NestJ, L: &Scan{Table: "L"}, R: &Scan{Table: "R"}, LVar: "x", RVar: "y",
		Pred: NewScalar(adl.CBool(true), "x", "y"), As: "ys", Sel: &sel}
	_, err := Collect(j, &Ctx{DB: d})
	if err == nil || !strings.Contains(err.Error(), "ys={") {
		t.Fatalf("got %v, want the error to print the row with its group", err)
	}
}

// TestFusedNestJoinOpensNoMapStream: a fused nestjoin's stream is its
// buffer, which Collect takes whole.
func TestFusedNestJoinOpensNoMapStream(t *testing.T) {
	d := fusedDB()
	sel := NewScalar(adl.V("ys"), "x", "ys")
	var db eval.DB = d
	rows, err := (&HashJoin{Kind: adl.NestJ, L: &Scan{Table: "L"}, R: &Scan{Table: "R"}, LVar: "x", RVar: "y",
		In: "parts", RKey: NewScalar(adl.SubT(adl.V("y"), "k"), "y"), As: "ys", Sel: &sel}).Open(&Ctx{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if _, ok := rows.(blocking); !ok {
		t.Fatalf("a fused nestjoin without a failing row opens %T, want a blocking stream", rows)
	}
}
