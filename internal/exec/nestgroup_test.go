package exec

import (
	"testing"

	"repro/internal/adl"
	"repro/internal/storage"
	"repro/internal/value"
)

// TestNestGroupsKeepTheirMembers: a nestjoin builds every group of a run in
// one scratch set and emits an exact-size copy of it.
// Left rows whose groups have 3, then 1, then 0 members, thirty rows in all,
// must each keep exactly their own members once the later rows have been
// grouped — on every nestjoin operator that runs the join verdict, over a
// Scan and over a ColumnScan. Emitting the scratch set itself would leave
// every group of a run holding the members of the run's last row.
func TestNestGroupsKeepTheirMembers(t *testing.T) {
	// R's rows 0-2 are group 0, row 3 is group 1; no row is group 2. A left
	// row of group g references exactly the R rows of group g.
	r := value.EmptySet()
	for pid, g := range []int64{0, 0, 0, 1} {
		r.Add(value.NewTuple("pid", value.Int(int64(pid)), "g", value.Int(g)))
	}
	refs := [][]int64{{0, 1, 2}, {3}, {}}
	l := value.EmptySet()
	for i := range 30 {
		g := i % len(refs)
		parts := value.EmptySet()
		for _, pid := range refs[g] {
			parts.Add(value.NewTuple("pid", value.Int(pid)))
		}
		l.Add(value.NewTuple("a", value.Int(int64(i)), "g", value.Int(int64(g)), "parts", parts))
	}
	d := storage.NewMemDB("L", l, "R", r)
	members := func(g value.Value) *value.Set {
		want := value.EmptySet()
		for _, row := range r.Elems() {
			if value.Equal(row.(*value.Tuple).MustGet("g"), g) {
				want.Add(row)
			}
		}
		return want
	}

	x, y := adl.V("x"), adl.V("y")
	pid := NewScalar(adl.SubT(y, "pid"), "y")
	lkey, rkey := NewScalar(adl.Dot(x, "g"), "x"), NewScalar(adl.Dot(y, "g"), "y")
	ops := map[string]Operator{}
	for arm, l := range leftArms("L") {
		ops["HashJoin ∈ over "+arm] = &HashJoin{Kind: adl.NestJ, L: l, R: &Scan{Table: "R"},
			In: "parts", RKey: pid, As: "ys"}
		ops["HashJoin over "+arm] = &HashJoin{Kind: adl.NestJ,
			L: l, R: &Scan{Table: "R"}, LVar: "x", RVar: "y", LKey: lkey, RKey: rkey, As: "ys"}
	}
	for name, op := range ops {
		got := collect(t, op, d)
		if got.Len() != l.Len() {
			t.Errorf("%s: %d rows, want %d", name, got.Len(), l.Len())
		}
		for _, row := range got.Elems() {
			rt := row.(*value.Tuple)
			ys := rt.MustGet("ys").(*value.Set)
			if want := members(rt.MustGet("g")); !value.Equal(ys, want) {
				t.Errorf("%s: row a=%v has group %v, want %v", name, rt.MustGet("a"), ys, want)
			}
		}
	}
}
