package exec

import (
	"testing"

	"repro/internal/adl"
	"repro/internal/storage"
	"repro/internal/value"
)

// Edge cases for the PNHL operator: an empty probe side, all-duplicate keys
// (one hash bucket spanning segments), and a single-row build side.

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
