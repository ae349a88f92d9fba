package core

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/value"
)

func TestPrepareExecuteExplain(t *testing.T) {
	st := bench.Generate(bench.Config{Suppliers: 10, Parts: 12, Seed: 3})
	q, err := Prepare(`
		select s from s in SUPPLIER
		where exists x in s.parts_supplied : exists p in PART : x = p and p.color = "red"`,
		st.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Execute(st)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.ExecuteNaive(st)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(got, want) {
		t.Fatalf("physical and naive execution diverge")
	}
	exp := q.Explain()
	for _, s := range []string{"OOSQL:", "ADL (§3 translation):", "⋉", "HashJoin[⋉ on p[pid] ∈ .parts]", "options used"} {
		if !strings.Contains(exp, s) {
			t.Errorf("explain missing %q:\n%s", s, exp)
		}
	}
}

func TestPrepareErrors(t *testing.T) {
	st := bench.Generate(bench.Config{Suppliers: 2, Parts: 2, Seed: 1})
	if _, err := Prepare(`select from`, st.Catalog()); err == nil {
		t.Errorf("parse error must surface")
	}
	if _, err := Prepare(`select x from x in NOPE`, st.Catalog()); err == nil {
		t.Errorf("resolution error must surface")
	}
}
