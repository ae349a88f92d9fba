package exec

import (
	"testing"

	"repro/internal/adl"
	"repro/internal/storage"
	"repro/internal/value"
)

// Edge cases for the PNHL and sort-merge operators: empty inputs on either
// side, all-duplicate keys (one giant merge group / one hash bucket spanning
// segments), and a single-row build side.

func pnhlOp(budget int) *PNHL {
	return &PNHL{
		L: &Scan{Table: "N"}, R: &Scan{Table: "R"},
		Attr:       "parts",
		ElemKey:    NewScalar(adl.Dot(adl.V("e"), "k"), "e"),
		BuildKey:   NewScalar(adl.Dot(adl.V("y"), "d"), "y"),
		BudgetRows: budget,
	}
}

// pnhlSpec is the logical specification PNHL implements:
// α[z : z except (parts = {e ∘ y | e ∈ z.parts, y ∈ R, e.k = y.d})](N).
func pnhlSpec() adl.Expr {
	return adl.MapE("z",
		adl.Exc(adl.V("z"), "parts",
			adl.Flat(adl.MapE("e",
				adl.MapE("y2", adl.Cat(adl.V("e"), adl.V("y2")),
					adl.Sel("y", adl.EqE(adl.Dot(adl.V("e"), "k"), adl.Dot(adl.V("y"), "d")), adl.T("R"))),
				adl.Dot(adl.V("z"), "parts")))),
		adl.T("N"))
}

func TestPNHLEmptyProbe(t *testing.T) {
	d := storage.NewMemDB(
		"N", value.EmptySet(),
		"R", value.NewSet(value.NewTuple("d", value.Int(1), "c", value.Int(9))),
	)
	for _, budget := range []int{0, 1} {
		if got := collect(t, pnhlOp(budget), d); got.Len() != 0 {
			t.Fatalf("budget %d: empty probe side must yield ∅, got %v", budget, got)
		}
	}
}

func TestPNHLAllDuplicateKeys(t *testing.T) {
	// Every element and every build row carries the same key: one hash
	// bucket, sliced across segments by a tiny budget. The per-left-tuple
	// merge must still produce each element ∘ row pair exactly once.
	parts := value.EmptySet()
	for i := 0; i < 4; i++ {
		parts.Add(value.NewTuple("k", value.Int(7), "tag", value.Int(int64(i))))
	}
	r := value.EmptySet()
	for i := 0; i < 6; i++ {
		r.Add(value.NewTuple("d", value.Int(7), "c", value.Int(int64(100+i))))
	}
	d := storage.NewMemDB(
		"N", value.NewSet(
			value.NewTuple("a", value.Int(1), "parts", parts),
			value.NewTuple("a", value.Int(2), "parts", value.EmptySet()),
		),
		"R", r,
	)
	want := evalRef(t, pnhlSpec(), d)
	for _, budget := range []int{0, 1, 2, 5} {
		p := pnhlOp(budget)
		if got := collect(t, p, d); !value.Equal(got, want) {
			t.Fatalf("budget %d: all-duplicate keys diverge from spec:\n got  %v\n want %v",
				budget, got, want)
		}
		if n := Segments(6, budget); budget == 1 && n != 6 {
			t.Fatalf("budget 1 over 6 build rows must use 6 segments, used %d", n)
		}
	}
}

func TestPNHLSingleRowBuild(t *testing.T) {
	parts := value.NewSet(
		value.NewTuple("k", value.Int(1), "tag", value.Int(10)),
		value.NewTuple("k", value.Int(2), "tag", value.Int(20)),
	)
	d := storage.NewMemDB(
		"N", value.NewSet(value.NewTuple("a", value.Int(1), "parts", parts)),
		"R", value.NewSet(value.NewTuple("d", value.Int(2), "c", value.Int(5))),
	)
	want := evalRef(t, pnhlSpec(), d)
	for _, budget := range []int{0, 1} {
		if got := collect(t, pnhlOp(budget), d); !value.Equal(got, want) {
			t.Fatalf("budget %d: single-row build diverges:\n got  %v\n want %v", budget, got, want)
		}
	}
}

func sortMergeOp(kind adl.JoinKind, as string) *SortMergeJoin {
	return &SortMergeJoin{Kind: kind, L: &Scan{Table: "L"}, R: &Scan{Table: "R"},
		LVar: "x", RVar: "y",
		LKey: NewScalar(adl.Dot(adl.V("x"), "b"), "x"),
		RKey: NewScalar(adl.Dot(adl.V("y"), "d"), "y"), As: as}
}

func TestSortMergeEmptyInputs(t *testing.T) {
	lrow := value.NewTuple("a", value.Int(1), "b", value.Int(2))
	rrow := value.NewTuple("c", value.Int(3), "d", value.Int(2))
	cases := []struct {
		name string
		l, r *value.Set
	}{
		{"both-empty", value.EmptySet(), value.EmptySet()},
		{"left-empty", value.EmptySet(), value.NewSet(rrow)},
		{"right-empty", value.NewSet(lrow), value.EmptySet()},
	}
	for _, tc := range cases {
		d := storage.NewMemDB("L", tc.l, "R", tc.r)
		if got := collect(t, sortMergeOp(adl.Inner, ""), d); got.Len() != 0 {
			t.Fatalf("%s: inner sort-merge must be ∅, got %v", tc.name, got)
		}
		got := collect(t, sortMergeOp(adl.NestJ, "g"), d)
		if got.Len() != tc.l.Len() {
			t.Fatalf("%s: nestjoin must keep all %d left rows, got %v", tc.name, tc.l.Len(), got)
		}
		for _, e := range got.Elems() {
			g := e.(*value.Tuple).MustGet("g").(*value.Set)
			if g.Len() != 0 {
				t.Fatalf("%s: dangling left row must group ∅, got %v", tc.name, g)
			}
		}
	}
}

func TestSortMergeAllDuplicateKeys(t *testing.T) {
	// One merge group on each side: the group-by-group pairing degenerates
	// to a full cross product (inner) / one full group per left row (nestj).
	l := value.EmptySet()
	for i := 0; i < 5; i++ {
		l.Add(value.NewTuple("a", value.Int(int64(i)), "b", value.Int(3)))
	}
	r := value.EmptySet()
	for i := 0; i < 4; i++ {
		r.Add(value.NewTuple("c", value.Int(int64(10+i)), "d", value.Int(3)))
	}
	d := storage.NewMemDB("L", l, "R", r)

	want := evalRef(t, logicalJoin(adl.Inner, "", nil), d)
	if got := collect(t, sortMergeOp(adl.Inner, ""), d); !value.Equal(got, want) {
		t.Fatalf("inner all-duplicate keys:\n got  %v\n want %v", got, want)
	}
	if want.Len() != 20 {
		t.Fatalf("oracle sanity: 5×4 cross product expected, got %d", want.Len())
	}

	want = evalRef(t, logicalJoin(adl.NestJ, "g", nil), d)
	if got := collect(t, sortMergeOp(adl.NestJ, "g"), d); !value.Equal(got, want) {
		t.Fatalf("nestjoin all-duplicate keys:\n got  %v\n want %v", got, want)
	}
}

func TestSortMergeSingleRowBuild(t *testing.T) {
	l := value.NewSet(
		value.NewTuple("a", value.Int(1), "b", value.Int(2)),
		value.NewTuple("a", value.Int(2), "b", value.Int(2)),
		value.NewTuple("a", value.Int(3), "b", value.Int(9)),
	)
	r := value.NewSet(value.NewTuple("c", value.Int(4), "d", value.Int(2)))
	d := storage.NewMemDB("L", l, "R", r)

	for _, k := range []struct {
		kind adl.JoinKind
		as   string
	}{{adl.Inner, ""}, {adl.NestJ, "g"}} {
		want := evalRef(t, logicalJoin(k.kind, k.as, nil), d)
		if got := collect(t, sortMergeOp(k.kind, k.as), d); !value.Equal(got, want) {
			t.Fatalf("%v single-row build:\n got  %v\n want %v", k.kind, got, want)
		}
	}
}
