package plan

import (
	"math/rand"
	"testing"

	"repro/internal/value"
)

// The histogram arm of the differential harness: seeded random multi-join
// queries over real stores whose key attributes are Zipf-skewed — the data
// shape where histogram estimates and the NDV rules genuinely diverge — are
// planned with histograms, with them hidden (noHistograms), and with
// parallel operators. Every plan must return the exact result set of the
// serial reference planned without statistics. CI runs this under -race.
func TestDifferentialHistogramEquivalence(t *testing.T) {
	histDiffers := 0
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed + 1300))
		nt := 3 + rng.Intn(2)
		st := storeRelations(t, rng, nt, true)
		stats := st.Analyze()
		leaves := rng.Perm(nt)
		tg := &treeGen{rng: rng}
		expr, _ := tg.build(leaves)

		ref := collect(t, Compile(expr), st)

		arms := map[string]Config{
			"histograms":       {Statistics: stats},
			"nohistograms":     {Statistics: noHistograms{stats}},
			"hist-parallel":    {Statistics: stats, Parallelism: 3},
			"nohist-noindexes": {Statistics: noHistograms{stats}, NoIndexes: true},
		}
		var histPlan, ndvPlan string
		for name, cfg := range arms {
			pl := cfg.Plan(expr)
			got := collect(t, pl.Root, st)
			if !value.Equal(got, ref) {
				t.Fatalf("seed %d arm %s diverges from the no-statistics reference:\nquery: %s\nplan:\n%s\n got  %v\n want %v",
					seed, name, expr, pl.Explain(), got, ref)
			}
			switch name {
			case "histograms":
				histPlan = pl.Explain()
			case "nohistograms":
				ndvPlan = pl.Explain()
			}
		}
		if histPlan != ndvPlan {
			histDiffers++
		}
	}
	// On skewed data the histogram estimates must actually change some
	// decisions (plan shape or recorded estimates), not silently reproduce
	// the NDV model everywhere.
	if histDiffers < 5 {
		t.Fatalf("histograms changed the plan on only %d/25 seeds", histDiffers)
	}
}
