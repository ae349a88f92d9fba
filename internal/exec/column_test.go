package exec

import (
	"fmt"
	"testing"

	"repro/internal/adl"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/value"
)

// columnDBs holds the same rows twice: in a storage.Store, which keeps every
// reference set with its column (value.Set.Column), and in a MemDB whose sets
// carry none. R(pid, c, ik) has twelve rows; ik is an Int. L(lid, a, parts)
// has one row per case below, every element a tuple with a pid; LM's one row
// mixes two unary shapes, which μ could not unnest on pid.
func columnDBs(t *testing.T) (*storage.Store, *storage.MemDB) {
	t.Helper()
	cat := schema.NewCatalog()
	for _, cl := range []*schema.Class{
		{Name: "Right", Extent: "R", IDField: "pid", Attrs: []schema.Attr{
			{Name: "c", Type: types.IntType}, {Name: "ik", Type: types.IntType}}},
		{Name: "Left", Extent: "L", IDField: "lid", Attrs: []schema.Attr{
			{Name: "a", Type: types.IntType}, {Name: "parts", Kind: schema.RefSet, RefClass: "Right"}}},
		{Name: "Mixed", Extent: "LM", IDField: "lid", Attrs: []schema.Attr{
			{Name: "a", Type: types.IntType}, {Name: "parts", Kind: schema.RefSet, RefClass: "Right"}}},
	} {
		if err := cat.Define(cl); err != nil {
			t.Fatal(err)
		}
	}
	st := storage.New(cat)
	insert := func(extent string, row *value.Tuple) value.OID {
		oid, err := st.Insert(extent, row)
		if err != nil {
			t.Fatal(err)
		}
		return oid
	}
	var r []value.OID
	for i := range 12 {
		r = append(r, insert("R", value.NewTuple("c", value.Int(int64(i)), "ik", value.Int(int64(3*i)))))
	}
	ref := func(v value.Value) value.Value { return value.NewTuple("pid", v) }
	bits := func(o value.OID) value.Value { return value.Int(int64(o)) } // an Int equal in bits to o
	dangling := value.OID(1 << 40)
	var large []value.Value
	for i := range value.SmallSet + 4 {
		if i%5 == 4 {
			large = append(large, ref(dangling+value.OID(i)))
		} else {
			large = append(large, ref(r[i%len(r)]))
		}
	}
	for a, elems := range [][]value.Value{
		{}, // empty
		{ref(r[0]), ref(r[3])},
		{ref(dangling), ref(r[5])},
		{ref(dangling + 1)},
		{ref(bits(r[1])), ref(bits(r[2])), ref(value.Int(9))}, // Int column, OID bits
		large,
		{ref(r[4]), ref(bits(r[6]))}, // two kinds: no column
		{ref(r[7]), value.NewTuple("pid", r[8], "w", value.Int(1))}, // two shapes: no column
	} {
		insert("L", value.NewTuple("a", value.Int(int64(a)), "parts", value.NewSet(elems...)))
	}
	insert("LM", value.NewTuple("a", value.Int(0), "parts",
		value.NewSet(ref(r[9]), value.NewTuple("qid", r[10]))))

	mem := storage.NewMemDB()
	for _, ext := range []string{"R", "L", "LM"} {
		stored, err := st.Table(ext)
		if err != nil {
			t.Fatal(err)
		}
		rows := value.EmptySet()
		for _, row := range stored.Elems() {
			tup := row.(*value.Tuple)
			if parts, ok := tup.Get("parts"); ok {
				tup = tup.Except(value.NewTuple("parts", value.NewSetFromSlice(parts.(*value.Set).Elems())))
			}
			rows.Add(tup)
		}
		mem.Tables[ext] = rows
	}

	// The fixture must exercise both paths: a column on every pure reference
	// set of the store, none on the others, none anywhere in the MemDB.
	for _, db := range []interface {
		Table(string) (*value.Set, error)
	}{st, mem} {
		ls, _ := db.Table("L")
		for _, row := range ls.Elems() {
			tup := row.(*value.Tuple)
			a := int(tup.MustGet("a").(value.Int))
			shape, _, _ := tup.MustGet("parts").(*value.Set).Column()
			if want := db == st && a >= 1 && a <= 5; (shape != nil) != want {
				t.Fatalf("L row %d in %T: column %v, want one: %v", a, db, shape, want)
			}
		}
	}
	return st, mem
}

// TestReferenceColumnDifferential runs the joins that read a reference set's
// column over the store, where the sets have one, and over the MemDB, where
// they do not, and checks both against NLJoin: HashJoin on membership (semi, anti,
// nest with and without RFun) on OID and Int build keys and on keys of
// another shape, and HashJoin expanding μ in its probe (semi, anti; 1, 2 and
// 5 workers) on OID, Int and unary tuple keys. The cases hold empty sets,
// dangling references, Ints whose bits
// equal an OID key's (which must not match it), a set above value.SmallSet,
// and sets of two kinds or two shapes, which have no column.
func TestReferenceColumnDifferential(t *testing.T) {
	st, mem := columnDBs(t)
	x, y := adl.V("x"), adl.V("y")
	check := func(name string, op, oracle Operator) {
		t.Helper()
		want := collect(t, oracle, mem)
		if got := collect(t, op, mem); !value.Equal(got, want) {
			t.Errorf("%s over the MemDB: %v, want %v", name, got, want)
		}
		if got := collect(t, op, st); !value.Equal(got, want) {
			t.Errorf("%s over the store: %v, want %v", name, got, want)
		}
	}
	hits := 0
	for _, rk := range []struct {
		name string
		key  adl.Expr
	}{
		{"oid", adl.SubT(y, "pid")},
		{"int", adl.Tup("pid", adl.Dot(y, "ik"))},
		{"qid", adl.Tup("qid", adl.Dot(y, "pid"))}, // another shape, matching only LM's qid element
	} {
		for _, left := range []string{"L", "LM"} {
			for _, kc := range joinKindCases() {
				if kc.kind == adl.Inner || kc.kind == adl.Outer {
					continue
				}
				sp := &HashJoin{Kind: kc.kind, L: &Scan{Table: left}, R: &Scan{Table: "R"},
					In: "parts", RKey: NewScalar(rk.key, "y"), As: "ys", RFun: kc.rfun}
				oracle := setMember(kc.kind, left, "R", "parts", rk.key, kc.rfun)
				check(fmt.Sprintf("HashJoin ∈ %s %s keys, %s", kc.name, rk.name, left), sp, oracle)
				if kc.kind == adl.Semi {
					hits += collect(t, oracle, mem).Len()
				}
			}
		}
	}
	for _, keys := range []struct {
		name       string
		lkey, rkey adl.Expr
	}{
		{"oid", adl.SubT(x, "pid"), adl.SubT(y, "pid")},
		{"int", adl.Dot(x, "pid"), adl.Dot(y, "ik")},
		{"tuple", adl.Dot(x, "pid"), adl.Tup("pid", adl.Dot(y, "pid"))}, // an oid never equals ⟨pid⟩
	} {
		for _, kind := range []adl.JoinKind{adl.Semi, adl.Anti} {
			for _, parts := range []int{1, 2, 5} {
				hj := &HashJoin{Kind: kind, L: &Scan{Table: "L"}, R: &Scan{Table: "R"}, LVar: "x", RVar: "y",
					LKey: NewScalar(keys.lkey, "x"), RKey: NewScalar(keys.rkey, "y"), Unnest: "parts", Workers: parts}
				if hj.probeAttr() != "pid" {
					t.Fatalf("%s keys: the join would not expand μ in its probe", keys.name)
				}
				oracle := &NLJoin{Kind: kind, L: &UnnestOp{Child: &Scan{Table: "L"}, Attr: "parts"}, R: &Scan{Table: "R"},
					LVar: "x", RVar: "y", Pred: NewScalar(adl.EqE(keys.lkey, keys.rkey), "x", "y")}
				check(fmt.Sprintf("HashJoin{μ} %v %s keys, %d workers", kind, keys.name, parts), hj, oracle)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no semijoin matched: the cases test nothing")
	}
}
