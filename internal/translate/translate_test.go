package translate

import (
	"strings"
	"testing"

	"repro/internal/adl"
	"repro/internal/eval"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// testDB builds a small supplier-part database:
//
//	PART:     p1 bolt/10/red, p2 nut/5/blue, p3 gear/20/red
//	SUPPLIER: s1 → {p1, p2}, s2 → {p2}, s3 → {}, s4 → {p1, p2, p3}
//	DELIVERY: d1 by s1 on 940101 of (p1 × 5); d2 by s2 on 940102 of (p2 × 3)
func testDB(t *testing.T) (*storage.Store, map[string]value.OID) {
	t.Helper()
	st := storage.New(schema.SupplierPart())
	oids := map[string]value.OID{}
	ins := func(key, extent string, tup *value.Tuple) {
		oid, err := st.Insert(extent, tup)
		if err != nil {
			t.Fatalf("insert %s: %v", key, err)
		}
		oids[key] = oid
	}
	part := func(key, name string, price int64, color string) {
		ins(key, "PART", value.NewTuple(
			"pname", value.String(name), "price", value.Int(price), "color", value.String(color)))
	}
	part("p1", "bolt", 10, "red")
	part("p2", "nut", 5, "blue")
	part("p3", "gear", 20, "red")

	refs := func(keys ...string) *value.Set {
		s := value.EmptySet()
		for _, k := range keys {
			s.Add(value.NewTuple("pid", oids[k]))
		}
		return s
	}
	sup := func(key, name string, parts *value.Set) {
		ins(key, "SUPPLIER", value.NewTuple("sname", value.String(name), "parts", parts))
	}
	sup("s1", "s1", refs("p1", "p2"))
	sup("s2", "s2", refs("p2"))
	sup("s3", "s3", refs())
	sup("s4", "s4", refs("p1", "p2", "p3"))

	del := func(key string, supplier string, date int32, partKey string, qty int64) {
		ins(key, "DELIVERY", value.NewTuple(
			"supplier", oids[supplier],
			"supply", value.NewSet(value.NewTuple("part", oids[partKey], "quantity", value.Int(qty))),
			"date", value.Date(date)))
	}
	del("d1", "s1", 940101, "p1", 5)
	del("d2", "s2", 940102, "p2", 3)
	return st, oids
}

func xlate(t *testing.T, src string) (adl.Expr, *storage.Store, map[string]value.OID) {
	t.Helper()
	st, oids := testDB(t)
	e, _, err := Parse(src, st.Catalog())
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return e, st, oids
}

func run(t *testing.T, src string) (*value.Set, map[string]value.OID) {
	t.Helper()
	e, st, oids := xlate(t, src)
	got, err := eval.EvalSet(e, nil, st)
	if err != nil {
		t.Fatalf("eval(%s): %v", e, err)
	}
	return got, oids
}

func xlateErr(t *testing.T, src string) error {
	t.Helper()
	st, _ := testDB(t)
	_, _, err := Parse(src, st.Catalog())
	if err == nil {
		t.Fatalf("Parse(%q): expected error", src)
	}
	return err
}

// TestEQ5TranslationMatchesPaper checks that Example Query 5 translates to
// the exact ADL form printed in the paper's §4:
// σ[s : ∃x ∈ s.parts • ∃p ∈ PART • x = p[pid] ∧ p.color = "red"](SUPPLIER).
func TestEQ5TranslationMatchesPaper(t *testing.T) {
	e, _, _ := xlate(t, `
		select s from s in SUPPLIER
		where exists x in s.parts_supplied :
		      exists p in PART : x = p and p.color = "red"`)
	want := `σ[s : (∃x ∈ s.parts • (∃p ∈ PART • (x = p[pid] ∧ p.color = "red")))](SUPPLIER)`
	if got := e.String(); got != want {
		t.Errorf("EQ5 translation:\n got %s\nwant %s", got, want)
	}
}

// TestEQ4TranslationMatchesPaper checks Example Query 4 (§4):
// α[s : s.eid](σ[s : ∃z ∈ s.parts • ¬∃p ∈ PART • z = p[pid]](SUPPLIER)).
func TestEQ4TranslationMatchesPaper(t *testing.T) {
	e, _, _ := xlate(t, `
		select s.eid from s in SUPPLIER
		where exists z in s.parts_supplied : not exists p in PART : z = p`)
	want := `α[s : s.eid](σ[s : (∃z ∈ s.parts • ¬((∃p ∈ PART • z = p[pid])))](SUPPLIER))`
	if got := e.String(); got != want {
		t.Errorf("EQ4 translation:\n got %s\nwant %s", got, want)
	}
}

// TestEQ6TranslationMatchesPaper checks the p[pid] ∈ s.parts lowering of §4:
// α[s : (sname = s.sname, parts_suppl = σ[p : p[pid] ∈ s.parts](PART))](SUPPLIER).
func TestEQ6TranslationMatchesPaper(t *testing.T) {
	e, _, _ := xlate(t, `
		select (sname = s.sname,
		        parts_suppl = select p from p in PART where p in s.parts_supplied)
		from s in SUPPLIER`)
	want := `α[s : (sname = s.sname, parts_suppl = σ[p : p[pid] ∈ s.parts](PART))](SUPPLIER)`
	if got := e.String(); got != want {
		t.Errorf("EQ6 translation:\n got %s\nwant %s", got, want)
	}
}

func TestEQ1RunsAndNavigatesRefs(t *testing.T) {
	got, _ := run(t, `
		select (sname = s.sname,
		        pnames = select p.pname from p in s.parts_supplied where p.color = "red")
		from s in SUPPLIER`)
	if got.Len() != 4 {
		t.Fatalf("EQ1 result size = %d", got.Len())
	}
	byName := map[string]*value.Set{}
	for _, el := range got.Elems() {
		tup := el.(*value.Tuple)
		byName[string(tup.MustGet("sname").(value.String))] = tup.MustGet("pnames").(*value.Set)
	}
	if !value.Equal(byName["s1"], value.NewSet(value.String("bolt"))) {
		t.Errorf("s1 red parts = %v", byName["s1"])
	}
	if byName["s2"].Len() != 0 {
		t.Errorf("s2 red parts = %v", byName["s2"])
	}
	if !value.Equal(byName["s4"], value.NewSet(value.String("bolt"), value.String("gear"))) {
		t.Errorf("s4 red parts = %v", byName["s4"])
	}
}

func TestEQ2FromClauseNesting(t *testing.T) {
	got, oids := run(t, `
		select d
		from d in (select e from e in DELIVERY where e.supplier.sname = "s1")
		where d.date = 940101`)
	if got.Len() != 1 {
		t.Fatalf("EQ2 = %v", got)
	}
	d := got.Elems()[0].(*value.Tuple)
	if !value.Equal(d.MustGet("did"), oids["d1"]) {
		t.Errorf("EQ2 selected %v", d)
	}
}

func TestEQ3aSetComparison(t *testing.T) {
	// Suppliers whose parts ⊇ the parts supplied by s1 (= {p1, p2}).
	got, _ := run(t, `
		select s.sname from s in SUPPLIER
		where s.parts_supplied superset
		      flatten(select t.parts_supplied from t in SUPPLIER where t.sname = "s1")`)
	want := value.NewSet(value.String("s1"), value.String("s4"))
	if !value.Equal(got, want) {
		t.Errorf("EQ3a = %v, want %v", got, want)
	}
}

func TestEQ3bQuantifierOverSubquery(t *testing.T) {
	got, oids := run(t, `
		select d from d in DELIVERY
		where exists x in (select s from s in d.supply where s.part.color = "red")`)
	if got.Len() != 1 {
		t.Fatalf("EQ3b = %v", got)
	}
	if !value.Equal(got.Elems()[0].(*value.Tuple).MustGet("did"), oids["d1"]) {
		t.Errorf("EQ3b selected wrong delivery")
	}
}

func TestEQ4FindsDanglingReference(t *testing.T) {
	// Inject a referential-integrity violation: a supplier holding a
	// reference to a part that does not exist. EQ4 compares identities
	// without navigating, so the dangling oid is detected, not followed.
	st, oids := testDB(t)
	bad := value.NewSet(value.NewTuple("pid", value.OID(9999)))
	badOID, err := st.Insert("SUPPLIER", value.NewTuple("sname", value.String("s5"), "parts", bad))
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := Parse(`
		select s.eid from s in SUPPLIER
		where exists z in s.parts_supplied : not exists p in PART : z = p`, st.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	got, err := eval.EvalSet(e, nil, st)
	if err != nil {
		t.Fatal(err)
	}
	want := value.NewSet(badOID)
	if !value.Equal(got, want) {
		t.Errorf("EQ4 = %v, want %v (s5 has the dangling ref)", got, want)
	}
	_ = oids
}

func TestEQ5SelectsRedPartSuppliers(t *testing.T) {
	got, _ := run(t, `
		select s.sname from s in SUPPLIER
		where exists x in s.parts_supplied :
		      exists p in PART : x = p and p.color = "red"`)
	want := value.NewSet(value.String("s1"), value.String("s4"))
	if !value.Equal(got, want) {
		t.Errorf("EQ5 = %v, want %v", got, want)
	}
}

func TestEQ6BuildsNestedResult(t *testing.T) {
	got, oids := run(t, `
		select (sname = s.sname,
		        parts_suppl = select p from p in PART where p in s.parts_supplied)
		from s in SUPPLIER`)
	for _, el := range got.Elems() {
		tup := el.(*value.Tuple)
		name := string(tup.MustGet("sname").(value.String))
		parts := tup.MustGet("parts_suppl").(*value.Set)
		switch name {
		case "s1":
			if parts.Len() != 2 {
				t.Errorf("s1 parts = %v", parts)
			}
		case "s3":
			if parts.Len() != 0 {
				t.Errorf("s3 parts = %v (dangling ref must not match)", parts)
			}
		case "s4":
			if parts.Len() != 3 {
				t.Errorf("s4 parts = %v", parts)
			}
		}
		// The nested objects are full Part tuples.
		for _, p := range parts.Elems() {
			if !p.(*value.Tuple).Has("color") {
				t.Errorf("nested part lacks attributes: %v", p)
			}
		}
	}
	_ = oids
}

func TestWithBindingCorrelated(t *testing.T) {
	// The general format of §5.1: a correlated with-binding.
	got, _ := run(t, `
		select s.sname from s in SUPPLIER
		where count(Y') = 2
		with Y' = select p from p in PART where p in s.parts_supplied`)
	if !value.Equal(got, value.NewSet(value.String("s1"))) {
		t.Errorf("with query = %v", got)
	}
}

func TestDateCoercion(t *testing.T) {
	got, oids := run(t, `select d from d in DELIVERY where d.date = 940101`)
	if got.Len() != 1 || !value.Equal(got.Elems()[0].(*value.Tuple).MustGet("did"), oids["d1"]) {
		t.Errorf("date query = %v", got)
	}
	got2, _ := run(t, `select d from d in DELIVERY where d.date >= 940102`)
	if got2.Len() != 1 {
		t.Errorf("date range query = %v", got2)
	}
	// The largest date and one past it, on either side of either comparison:
	// an integer out of a date's range is an error, not a wrapped date.
	if got, _ := run(t, `select d from d in DELIVERY where d.date < 2147483647`); got.Len() != 2 {
		t.Errorf("d.date < 2147483647 = %v, want both deliveries", got)
	}
	for _, src := range []string{
		`select d from d in DELIVERY where d.date < 4295907401`,
		`select d from d in DELIVERY where d.date < 4294967296`,
		`select d from d in DELIVERY where 2147483648 > d.date`,
		`select d from d in DELIVERY where d.date = 2147483648`,
		`select d from d in DELIVERY where 4294967296 = d.date`,
	} {
		if err := xlateErr(t, src); !strings.Contains(err.Error(), "out of range for a date") {
			t.Errorf("%s: %v", src, err)
		}
	}
}

func TestIdentityComparisonShapes(t *testing.T) {
	// OID vs Object: d.supplier = s.
	got, _ := run(t, `
		select s.sname from s in SUPPLIER
		where exists d in DELIVERY : d.supplier = s`)
	if !value.Equal(got, value.NewSet(value.String("s1"), value.String("s2"))) {
		t.Errorf("oid=obj = %v", got)
	}
	// Object vs Object: p = q.
	got2, _ := run(t, `
		select p.pname from p in PART
		where exists q in PART : p = q and q.color = "red"`)
	if !value.Equal(got2, value.NewSet(value.String("bolt"), value.String("gear"))) {
		t.Errorf("obj=obj = %v", got2)
	}
	// OID vs RefTup: d.supply's part refs against s.parts_supplied elements.
	// s1 supplies {p1, p2}; d1 delivers p1 and d2 delivers p2, so both match.
	got3, _ := run(t, `
		select d from d in DELIVERY
		where exists sp in d.supply :
		      exists z in (select s from s in SUPPLIER where s.sname = "s1") :
		      exists w in z.parts_supplied : sp.part = w`)
	if got3.Len() != 2 {
		t.Errorf("oid=reftup = %v", got3)
	}
}

func TestMembershipShapeLowering(t *testing.T) {
	// Obj in {Obj} set from a subquery: plain ∈.
	got, _ := run(t, `
		select p.pname from p in PART
		where p in (select q from q in PART where q.color = "red")`)
	if !value.Equal(got, value.NewSet(value.String("bolt"), value.String("gear"))) {
		t.Errorf("obj in {obj} = %v", got)
	}
	// OID in {RefTup}: d.supplier's ... build via supply.part in parts_supplied.
	got2, _ := run(t, `
		select d from d in DELIVERY
		where exists sp in d.supply :
		      exists s in SUPPLIER : sp.part in s.parts_supplied`)
	if got2.Len() != 2 {
		t.Errorf("oid in {reftup} = %v", got2)
	}
}

func TestSubsetMixedShapesExpandsToQuantifiers(t *testing.T) {
	// {RefTup} subset {Obj}: must expand into ∀/∃ with coerced equality.
	e, st, _ := xlate(t, `
		select s from s in SUPPLIER
		where s.parts_supplied subset (select p from p in PART where p.color = "red")`)
	if !strings.Contains(e.String(), "∀") || !strings.Contains(e.String(), "∃") {
		t.Errorf("mixed-shape subset did not expand: %s", e)
	}
	got, err := eval.EvalSet(e, nil, st)
	if err != nil {
		t.Fatal(err)
	}
	// Only s3 qualifies: its parts set is empty (∀ over ∅), while s1, s2 and
	// s4 all supply the blue p2.
	names := value.NewSet()
	for _, el := range got.Elems() {
		names.Add(el.(*value.Tuple).MustGet("sname"))
	}
	if !value.Equal(names, value.NewSet(value.String("s3"))) {
		t.Errorf("red-only suppliers = %v, want {s3}", names)
	}
}

func TestSetOpsAndAggregates(t *testing.T) {
	got, _ := run(t, `
		select s.sname from s in SUPPLIER
		where count(s.parts_supplied) >= 2`)
	if !value.Equal(got, value.NewSet(value.String("s1"), value.String("s4"))) {
		t.Errorf("count query = %v", got)
	}
	got2, _ := run(t, `
		select p.pname from p in PART
		where p.price = max(select q.price from q in PART where true)`)
	if !value.Equal(got2, value.NewSet(value.String("gear"))) {
		t.Errorf("max query = %v", got2)
	}
	got3, _ := run(t, `
		select x from x in ({1, 2} union {2, 3}) where x > 1`)
	if !value.Equal(got3, value.NewSet(value.Int(2), value.Int(3))) {
		t.Errorf("union query = %v", got3)
	}
}

func TestArithmeticAndUnaryMinus(t *testing.T) {
	got, _ := run(t, `select p.pname from p in PART where p.price * 2 > 15 + 5`)
	if !value.Equal(got, value.NewSet(value.String("gear"))) {
		t.Errorf("arith query = %v", got)
	}
	got2, _ := run(t, `select x from x in {1, 2, 3} where x > -1 + 2`)
	if !value.Equal(got2, value.NewSet(value.Int(2), value.Int(3))) {
		t.Errorf("unary minus = %v", got2)
	}
}

func TestTranslateErrors(t *testing.T) {
	cases := map[string]string{
		"unknown table":        `select x from x in NOPE`,
		"unknown attribute":    `select s.nope from s in SUPPLIER`,
		"non-bool where":       `select s from s in SUPPLIER where 1`,
		"non-set from":         `select x from x in 1`,
		"bad membership":       `select s from s in SUPPLIER where 1 in 2`,
		"heterogeneous set":    `select x from x in {1, "a"}`,
		"cmp class mismatch":   `select s from s in SUPPLIER where exists p in PART : s = p`,
		"ordered cmp on sets":  `select s from s in SUPPLIER where s.parts_supplied < s.parts_supplied`,
		"sum of strings":       `select s from s in SUPPLIER where sum(select t.sname from t in SUPPLIER where true) = 1`,
		"flatten of flat":      `select x from x in flatten(PART)`,
		"arith type mismatch":  `select p from p in PART where p.price + "x" = 1`,
		"subset incompatible":  `select s from s in SUPPLIER where s.parts_supplied subset {1}`,
		"dup tuple attr":       `select (a = 1, a = 2) from s in SUPPLIER`,
		"not of non-boolean":   `select s from s in SUPPLIER where not 1`,
		"contains of flat set": `select s from s in SUPPLIER where {1} contains {1}`,
	}
	for name, src := range cases {
		if err := xlateErr(t, src); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestPaperEQ3VerbatimIsIllTyped documents the paper's informality: EQ3's
// first query compares a set of parts with a set of sets of parts; the
// checker rejects it with a set-comparison type error (we reproduce the
// query with an explicit flatten, see TestEQ3aSetComparison).
func TestPaperEQ3VerbatimIsIllTyped(t *testing.T) {
	err := xlateErr(t, `
		select s.sname from s in SUPPLIER
		where s.parts_supplied superset
		      (select t.parts_supplied from t in SUPPLIER where t.sname = "s1")`)
	if !strings.Contains(err.Error(), "superset") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestIdentityMapElision(t *testing.T) {
	e, _, _ := xlate(t, `select s from s in SUPPLIER where s.sname = "s1"`)
	if _, isMap := e.(*adl.Map); isMap {
		t.Errorf("identity select must not produce α: %s", e)
	}
	if _, isSel := e.(*adl.Select); !isSel {
		t.Errorf("expected bare σ: %s", e)
	}
	// No where-clause and identity select: bare table.
	e2, _, _ := xlate(t, `select s from s in SUPPLIER`)
	if _, isTab := e2.(*adl.Table); !isTab {
		t.Errorf("trivial sfw must reduce to the table: %s", e2)
	}
}
