package plan

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/adl"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/value"
)

// The chain differential property test: seeded random multi-join queries
// (3–4 relations, random tree shapes, equi and theta conjuncts, occasional
// empty tables) are planned from statistics serially and with parallel
// operators, and every plan must return the exact result set of the serial
// reference planned without statistics. CI runs this under -race, which also
// shakes the parallel operators the cost model picks inside a chain.

// randRelations builds nt random tables T0..T{nt-1}, each with a key
// attribute t{i}k (small domain), a second key t{i}j, and a value t{i}v,
// plus exact collected-style statistics. Tables are sometimes empty.
func randRelations(rng *rand.Rand, nt int) (*storage.MemDB, fakeStatistics) {
	stats := fakeStatistics{rows: map[string]int{}, ndv: map[string]int{}}
	var pairs []any
	for i := 0; i < nt; i++ {
		name := fmt.Sprintf("T%d", i)
		set := value.EmptySet()
		rows := rng.Intn(40)
		if rng.Intn(8) == 0 {
			rows = 0 // the empty-extent edge the cost guards exist for
		}
		dom := int64(1 + rng.Intn(6))
		distinct := map[string]map[value.Value]bool{}
		note := func(attr string, v value.Value) {
			if distinct[attr] == nil {
				distinct[attr] = map[value.Value]bool{}
			}
			distinct[attr][v] = true
		}
		for r := 0; r < rows; r++ {
			k := value.Int(rng.Int63n(dom))
			j := value.Int(rng.Int63n(dom))
			v := value.Int(int64(rng.Intn(25)))
			set.Add(value.NewTuple(
				fmt.Sprintf("t%dk", i), k,
				fmt.Sprintf("t%dj", i), j,
				fmt.Sprintf("t%dv", i), v,
			))
			note(fmt.Sprintf("t%dk", i), k)
			note(fmt.Sprintf("t%dj", i), j)
			note(fmt.Sprintf("t%dv", i), v)
		}
		pairs = append(pairs, name, set)
		stats.rows[name] = set.Len()
		for attr, vals := range distinct {
			stats.ndv[name+"."+attr] = len(vals)
		}
	}
	return storage.NewMemDB(pairs...), stats
}

// randJoinTree builds a random inner-join tree over the table indexes in
// leaves, with every join predicate referencing attributes through the
// join's own operand variables (the nested form the rewriter emits).
type treeGen struct {
	rng *rand.Rand
	seq int
}

// attrName picks a random attribute of table index i.
func (tg *treeGen) attrName(i int, keyOnly bool) string {
	suffixes := []string{"k", "j"}
	if !keyOnly {
		suffixes = append(suffixes, "v")
	}
	return fmt.Sprintf("t%d%s", i, suffixes[tg.rng.Intn(len(suffixes))])
}

// build returns the expression over the given leaves and the table indexes
// it covers.
func (tg *treeGen) build(leaves []int) (adl.Expr, []int) {
	if len(leaves) == 1 {
		return adl.T(fmt.Sprintf("T%d", leaves[0])), leaves
	}
	split := 1 + tg.rng.Intn(len(leaves)-1)
	l, lIdx := tg.build(leaves[:split])
	r, rIdx := tg.build(leaves[split:])
	lv := fmt.Sprintf("v%d", tg.seq)
	rv := fmt.Sprintf("v%d", tg.seq+1)
	tg.seq += 2

	// One connecting equi conjunct, plus occasionally a theta residual.
	li := lIdx[tg.rng.Intn(len(lIdx))]
	ri := rIdx[tg.rng.Intn(len(rIdx))]
	on := []adl.Expr{adl.EqE(
		adl.Dot(adl.V(lv), tg.attrName(li, true)),
		adl.Dot(adl.V(rv), tg.attrName(ri, true)))}
	if tg.rng.Intn(3) == 0 {
		li, ri = lIdx[tg.rng.Intn(len(lIdx))], rIdx[tg.rng.Intn(len(rIdx))]
		on = append(on, adl.CmpE(adl.Lt,
			adl.Dot(adl.V(lv), tg.attrName(li, false)),
			adl.Dot(adl.V(rv), tg.attrName(ri, false))))
	}
	// Occasionally a single-relation filter conjunct, exercising pushdown.
	if tg.rng.Intn(4) == 0 {
		side, idx := lv, lIdx
		if tg.rng.Intn(2) == 0 {
			side, idx = rv, rIdx
		}
		on = append(on, adl.CmpE(adl.Le,
			adl.Dot(adl.V(side), tg.attrName(idx[tg.rng.Intn(len(idx))], false)),
			adl.CInt(int64(tg.rng.Intn(20)))))
	}
	return adl.JoinE(l, lv, rv, adl.AndE(on...), r), append(lIdx, rIdx...)
}

func TestDifferentialChainEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed + 400))
		nt := 3 + rng.Intn(2)
		db, stats := randRelations(rng, nt)
		leaves := rng.Perm(nt)
		tg := &treeGen{rng: rng}
		expr, _ := tg.build(leaves)

		ref := collect(t, Compile(expr), db)

		arms := map[string]Config{
			"serial":   {Statistics: stats},
			"parallel": {Statistics: stats, Parallelism: 3},
		}
		for name, cfg := range arms {
			pl := cfg.Plan(expr)
			got := collect(t, pl.Root, db)
			if !value.Equal(got, ref) {
				t.Fatalf("seed %d arm %s diverges from the no-statistics reference:\nquery: %s\nplan:\n%s\n got  %v\n want %v",
					seed, name, expr, pl.Explain(), got, ref)
			}
		}
	}
}

// storeRelations mirrors randRelations on a real storage.Store with
// secondary indexes — ordered on each t{i}k, hash on each t{i}j — so the
// indexed arms probe real index structures and ANALYZE-collected statistics
// (index kinds included) drive the planner. With skewed set, the key
// attributes are drawn from a Zipf distribution instead of uniformly, so
// the collected histograms have heavy hitters to disagree with the NDV
// rules about.
func storeRelations(t *testing.T, rng *rand.Rand, nt int, skewed bool) *storage.Store {
	t.Helper()
	cat := schema.NewCatalog()
	for i := 0; i < nt; i++ {
		if err := cat.Define(&schema.Class{
			Name:    fmt.Sprintf("T%dClass", i),
			Extent:  fmt.Sprintf("T%d", i),
			IDField: fmt.Sprintf("t%did", i),
			Attrs: []schema.Attr{
				{Name: fmt.Sprintf("t%dk", i), Kind: schema.Plain, Type: types.IntType},
				{Name: fmt.Sprintf("t%dj", i), Kind: schema.Plain, Type: types.IntType},
				{Name: fmt.Sprintf("t%dv", i), Kind: schema.Plain, Type: types.IntType},
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := storage.New(cat)
	for i := 0; i < nt; i++ {
		name := fmt.Sprintf("T%d", i)
		rows := rng.Intn(40)
		if rng.Intn(8) == 0 {
			rows = 0
		}
		dom := int64(1 + rng.Intn(6))
		draw := func() value.Value { return value.Int(rng.Int63n(dom)) }
		if skewed && dom > 1 {
			zipf := rand.NewZipf(rng, 1.8, 1, uint64(dom-1))
			draw = func() value.Value { return value.Int(int64(zipf.Uint64())) }
		}
		for r := 0; r < rows; r++ {
			if _, err := st.Insert(name, value.NewTuple(
				fmt.Sprintf("t%dk", i), draw(),
				fmt.Sprintf("t%dj", i), draw(),
				fmt.Sprintf("t%dv", i), value.Int(int64(rng.Intn(25))),
			)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.CreateIndex(name, fmt.Sprintf("t%dk", i), storage.OrderedIndex); err != nil {
			t.Fatal(err)
		}
		if err := st.EnsureIndexes(name, fmt.Sprintf("t%dj", i)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestDifferentialIndexedEquivalence is the indexed arm of the harness:
// seeded random multi-join queries over a real store with secondary indexes
// must return the no-statistics reference's exact result set with indexes on,
// off, and under parallel operators — race-clean under -race.
func TestDifferentialIndexedEquivalence(t *testing.T) {
	idxEngaged := 0
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed + 900))
		nt := 3 + rng.Intn(2)
		st := storeRelations(t, rng, nt, false)
		stats := st.Analyze()
		leaves := rng.Perm(nt)
		tg := &treeGen{rng: rng}
		expr, _ := tg.build(leaves)

		ref := collect(t, Compile(expr), st)

		arms := map[string]Config{
			"indexed":          {Statistics: stats},
			"indexed-parallel": {Statistics: stats, Parallelism: 3},
			"indexes-off":      {Statistics: stats, NoIndexes: true},
		}
		for name, cfg := range arms {
			pl := cfg.Plan(expr)
			got := collect(t, pl.Root, st)
			if !value.Equal(got, ref) {
				t.Fatalf("seed %d arm %s diverges from the no-statistics reference:\nquery: %s\nplan:\n%s\n got  %v\n want %v",
					seed, name, expr, pl.Explain(), got, ref)
			}
			if name == "indexed" && strings.Contains(pl.Explain(), "Index") {
				idxEngaged++
			}
		}
	}
	// The generator must actually exercise the index operators, not plan
	// around them every time.
	if idxEngaged < 5 {
		t.Fatalf("index access paths engaged on only %d/25 seeds", idxEngaged)
	}
}
