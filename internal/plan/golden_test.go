package plan

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/adl"
	"repro/internal/stats"
)

// -update regenerates the golden files:
//
//	go test ./internal/plan -run TestExplainGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// goldenStats is a fixed statistics feed so the rendered costs are
// deterministic and reviewable.
var goldenStats = fakeStatistics{
	rows: map[string]int{"SUPPLIER": 200, "PART": 4000, "DELIVERY": 60000},
	ndv: map[string]int{
		"SUPPLIER.eid": 200, "SUPPLIER.sname": 180,
		"PART.pid": 4000, "PART.color": 3,
		"DELIVERY.supplier": 200,
	},
	avg: map[string]float64{"SUPPLIER.parts": 6},
}

// goldenCase is one change-reviewed plan: an expression and the
// configuration it is planned under.
type goldenCase struct {
	cfg  Config
	expr adl.Expr
}

// goldenCases are the plan shapes whose Explain output is change-reviewed:
// every cost annotation or plan-shape change must show up in a golden diff.
func goldenCases() map[string]goldenCase {
	semiMembership := adl.SemiJoin(adl.T("SUPPLIER"), "s", "p",
		adl.CmpE(adl.In, adl.SubT(adl.V("p"), "pid"), adl.Dot(adl.V("s"), "parts")),
		adl.Sel("p", adl.EqE(adl.Dot(adl.V("p"), "color"), adl.CStr("red")), adl.T("PART")))

	innerSwap := adl.JoinE(adl.T("SUPPLIER"), "s", "d",
		adl.EqE(adl.Dot(adl.V("s"), "eid"), adl.Dot(adl.V("d"), "supplier")),
		adl.T("DELIVERY"))

	groupBig := adl.JoinE(adl.T("SUPPLIER"), "s", "d",
		adl.EqE(adl.Dot(adl.V("s"), "eid"), adl.Dot(adl.V("d"), "supplier")),
		adl.T("DELIVERY"))
	groupBig.Kind = adl.NestJ
	groupBig.As = "ds"

	theta := adl.JoinE(adl.T("SUPPLIER"), "s", "d",
		adl.CmpE(adl.Lt, adl.Dot(adl.V("s"), "eid"), adl.Dot(adl.V("d"), "supplier")),
		adl.T("DELIVERY"))

	// The chain cases plan inner-join chains in the order they are written:
	// a 3-relation chain written huge-join-first (A ⋈ B explodes, C is
	// selective), and a 4-relation chain whose A–B and C–D edges are
	// selective and whose B–C edge is weak.
	chain3Stats := fakeStatistics{
		rows: map[string]int{"A": 2000, "B": 2000, "C": 20},
		ndv: map[string]int{
			"A.a_id": 10, "A.a_v": 20,
			"B.b_a": 10, "B.b_c": 2000, "B.b_v": 20,
			"C.c_id": 20, "C.c_v": 20,
		},
	}

	chain4Stats := fakeStatistics{
		rows: map[string]int{"A": 1000, "B": 1000, "C": 1000, "D": 1000},
		ndv: map[string]int{
			"A.a_id": 1000,
			"B.b_a":  1000, "B.b_c": 10,
			"C.c_id": 10, "C.c_d": 1000,
			"D.d_id": 1000,
		},
	}
	chain4 := adl.JoinE(chain3(), "xyz", "w",
		adl.EqE(adl.Dot(adl.V("xyz"), "c_d"), adl.Dot(adl.V("w"), "d_id")), adl.T("D"))

	// indexStats mirror goldenStats plus secondary indexes, kept separate so
	// the index access paths show up only in the index golden cases.
	indexStats := fakeStatistics{
		rows: map[string]int{"SUPPLIER": 2000, "DELIVERY": 50000},
		ndv: map[string]int{"SUPPLIER.sname": 2000, "SUPPLIER.eid": 2000,
			"DELIVERY.supplier": 2000},
		idx: map[string]string{"SUPPLIER.sname": "ordered", "DELIVERY.supplier": "hash"},
	}
	lookupJoin := adl.JoinE(
		adl.Sel("s", adl.EqE(adl.Dot(adl.V("s"), "sname"), adl.CStr("supplier-42")),
			adl.T("SUPPLIER")),
		"s", "d",
		adl.EqE(adl.Dot(adl.V("s"), "eid"), adl.Dot(adl.V("d"), "supplier")),
		adl.T("DELIVERY"))
	rangeSel := adl.Sel("s", adl.AndE(
		adl.CmpE(adl.Ge, adl.Dot(adl.V("s"), "sname"), adl.CStr("supplier-5")),
		adl.CmpE(adl.Lt, adl.Dot(adl.V("s"), "sname"), adl.CStr("supplier-6"))),
		adl.T("SUPPLIER"))

	// histStats carry equi-depth histograms: EVT.sev is Zipf-shaped (value 0
	// holds 70% of the rows), EVT.qty uniform over [0,100). The histogram
	// cases show estimates the NDV rules cannot produce — the exact heavy-
	// hitter equality, the interpolated two-sided range — and the nohist
	// control renders the same queries with the histograms hidden.
	sevVals := make([]int64, 0, 2000)
	for i := 0; i < 2000; i++ {
		v := int64(1 + i%40)
		if i < 1400 {
			v = 0
		}
		sevVals = append(sevVals, v)
	}
	histStats := fakeStatistics{
		rows: map[string]int{"EVT": 2000},
		ndv:  map[string]int{"EVT.sev": 41, "EVT.qty": 100},
		idx:  map[string]string{"EVT.sev": "hash", "EVT.qty": "ordered"},
		hist: map[string]*stats.Histogram{
			"EVT.sev": histOf(sevVals...),
			"EVT.qty": uniformHist(2000, 100),
		},
	}
	hotEq := adl.Sel("e", adl.EqE(adl.Dot(adl.V("e"), "sev"), adl.CInt(0)), adl.T("EVT"))
	qtyRange := adl.Sel("e", adl.AndE(
		adl.CmpE(adl.Ge, adl.Dot(adl.V("e"), "qty"), adl.CInt(20)),
		adl.CmpE(adl.Lt, adl.Dot(adl.V("e"), "qty"), adl.CInt(30))), adl.T("EVT"))

	// The residual cases are semijoins whose second conjunct is no equi key:
	// once probing DELIVERY's index, once hashing it.
	residualSemi := func(l adl.Expr) *adl.Join {
		return adl.SemiJoin(l, "s", "d", adl.AndE(
			adl.EqE(adl.Dot(adl.V("s"), "eid"), adl.Dot(adl.V("d"), "supplier")),
			adl.CmpE(adl.Lt, adl.Dot(adl.V("d"), "date"), adl.Dot(adl.V("s"), "since"))),
			adl.T("DELIVERY"))
	}

	costed := Config{Statistics: goldenStats, Parallelism: 4}
	return map[string]goldenCase{
		"stats_hist_hot_eq":        {Config{Statistics: histStats, Parallelism: 4}, hotEq},
		"stats_nohist_hot_eq":      {Config{Statistics: noHistograms{histStats}, Parallelism: 4}, hotEq},
		"stats_hist_range_probe":   {Config{Statistics: histStats, Parallelism: 4}, qtyRange},
		"stats_nohist_range_probe": {Config{Statistics: noHistograms{histStats}, Parallelism: 4}, qtyRange},
		"stats_index_lookup":       {Config{Statistics: indexStats}, lookupJoin},
		"stats_index_range":        {Config{Statistics: indexStats}, rangeSel},
		"stats_residual_index":     {Config{Statistics: indexStats}, residualSemi(lookupJoin.L)},
		"stats_residual_hash":      {Config{Statistics: goldenStats, Parallelism: 1}, residualSemi(adl.T("SUPPLIER"))},
		"stats_chain3":             {Config{Statistics: chain3Stats, Parallelism: 4}, chain3()},
		"stats_chain4":             {Config{Statistics: chain4Stats, Parallelism: 4}, chain4},
		"nostats_semijoin":         {Config{}, semiMembership},
		"nostats_equijoin":         {Config{}, innerSwap},
		"stats_semijoin":           {costed, semiMembership},
		"stats_inner_swap":         {costed, innerSwap},
		"stats_group_par":          {costed, groupBig},
		"stats_theta_nl":           {costed, theta},
		"stats_filter_column":      {costed, adl.Sel("p", adl.EqE(adl.Dot(adl.V("p"), "color"), adl.CStr("red")), adl.T("PART"))},
		"stats_map_serial":         {costed, adl.MapE("d", adl.Dot(adl.V("d"), "date"), adl.T("DELIVERY"))},
		"stats_project_unnest":     {costed, adl.Proj(adl.Mu("parts", adl.T("SUPPLIER")), "pid")},
	}
}

// chain3 is ((A ⋈ B) ⋈ C), its outer predicate reading the concatenated left
// tuple.
func chain3() *adl.Join {
	inner := adl.JoinE(adl.T("A"), "x", "y",
		adl.EqE(adl.Dot(adl.V("x"), "a_id"), adl.Dot(adl.V("y"), "b_a")), adl.T("B"))
	return adl.JoinE(inner, "xy", "z",
		adl.EqE(adl.Dot(adl.V("xy"), "b_c"), adl.Dot(adl.V("z"), "c_id")), adl.T("C"))
}

func TestExplainGolden(t *testing.T) {
	for name, c := range goldenCases() {
		t.Run(name, func(t *testing.T) {
			got := c.cfg.Plan(c.expr).Explain()
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("Explain output changed; run with -update if intended.\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}
