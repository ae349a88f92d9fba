package storage_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// edgeStore holds the extents the generator never makes: of 0, 1 and 9
// rows, the 9 carrying floats with NaN and ±0, strings that share prefixes,
// a Null among ints, an attribute scalar in some rows and a set in others,
// one that is a set in only some rows, set elements of mixed layouts, nested
// sets and a tuple-valued attribute; and an extent of 1 200 rows, past the
// length from which value.SortRuns keys its sort, whose set elements tie on
// their int key and differ in a string.
func edgeStore(t *testing.T) *storage.Store {
	t.Helper()
	cat := schema.NewCatalog()
	for _, ext := range []string{"E0", "E1", "E9", "E1200"} {
		if err := cat.Define(&schema.Class{Name: "C" + ext, Extent: ext, IDField: "id"}); err != nil {
			t.Fatal(err)
		}
	}
	st := storage.New(cat)
	insert := func(ext string, row *value.Tuple) {
		if _, err := st.Insert(ext, row); err != nil {
			t.Fatal(err)
		}
	}
	insert("E1", value.NewTuple("a", value.Int(1), "s", value.NewSet(value.NewTuple("x", value.Int(1)))))
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, math.Inf(1), math.Inf(-1), math.NaN(), 1.5, 2}
	names := []string{"", "a", "ab", "abc", "a", "b", "ab", "", "abd"}
	for i := range 9 {
		var m, n value.Value = value.Int(int64(i)), value.Int(int64(i % 2))
		if i%2 == 1 {
			m = value.NewSet(value.Int(int64(i)))
		}
		if i == 4 {
			n = value.Null{}
		}
		row := value.NewTuple(
			"a", value.Int(int64(i%3)),
			"f", value.Float(floats[i]),
			"name", value.String(names[i]),
			"d", value.Date(int32(940101+i%4)),
			"m", m,
			"n", n,
			"elems", value.NewSet(
				value.NewTuple("pid", value.OID(i%4)),
				value.NewTuple("pid", value.OID(i), "w", value.Int(int64(i%2))),
				value.NewTuple("qid", value.OID(1))),
			"nested", value.NewSet(value.NewSet(value.Int(int64(i%2)), value.Int(2)), value.NewSet(value.Int(int64(i%3)))),
			"t", value.NewTuple("p", value.Int(int64(i%2)), "q", value.String("x")),
		)
		if i%3 == 0 {
			with, err := row.With("partial", value.NewSet(value.Int(int64(i))))
			if err != nil {
				t.Fatal(err)
			}
			row = with
		}
		insert("E9", row)
	}
	for i := range 1200 {
		insert("E1200", value.NewTuple(
			"g", value.Int(int64(i%5)),
			"when", value.Date(int32(i%17-8)),
			"s", value.NewSet(
				value.NewTuple("k", value.Int(int64(i%11-5)), "v", value.String(fmt.Sprintf("v%d", i%3))),
				value.NewTuple("k", value.Int(int64(i%7)), "v", value.String(fmt.Sprintf("v%d", i%2)))),
		))
	}
	return st
}

// sameBound is value.Equal, and NaN equal to NaN: a float histogram's bound
// may be a NaN run's head.
func sameBound(a, b value.Value) bool {
	return value.Equal(a, b) || value.IsNaN(a) && value.IsNaN(b)
}

// sameStats fails t unless got and want publish the same statistics: one
// String, the same counts per table, and histograms with the same buckets.
func sameStats(t *testing.T, name string, got, want *storage.DBStats) {
	t.Helper()
	if got.String() != want.String() {
		t.Fatalf("%s: statistics\n%s\nreference\n%s", name, got, want)
	}
	for ext, w := range want.Tables {
		g := got.Tables[ext]
		if g.Rows != w.Rows || fmt.Sprint(g.Distinct) != fmt.Sprint(w.Distinct) ||
			fmt.Sprint(g.AvgSetSize) != fmt.Sprint(w.AvgSetSize) || !slices.Equal(g.Mixed, w.Mixed) {
			t.Fatalf("%s: %s is %+v, reference %+v", name, ext, g, w)
		}
		for _, attr := range want.Attributes(ext) {
			gh, wh := got.Histogram(ext, attr), want.Histogram(ext, attr)
			if (gh == nil) != (wh == nil) {
				t.Fatalf("%s: %s.%s histogram %v, reference %v", name, ext, attr, gh, wh)
			}
			if wh == nil {
				continue
			}
			same := gh.Rows == wh.Rows && len(gh.Buckets) == len(wh.Buckets)
			for i := 0; same && i < len(wh.Buckets); i++ {
				gb, wb := gh.Buckets[i], wh.Buckets[i]
				same = gb.Rows == wb.Rows && gb.NDV == wb.NDV && sameBound(gb.Lo, wb.Lo) && sameBound(gb.Hi, wb.Hi)
			}
			if !same {
				t.Fatalf("%s: %s.%s histogram\n%v\nreference\n%v", name, ext, attr, gh, wh)
			}
		}
	}
}

// TestAnalyzeMatchesReference: the single typed pass of the first Analyze
// publishes exactly the statistics of the row-by-row reference collection
// (reference_test.go) on generated stores of three sizes, with empty and
// dangling reference sets, and on edgeStore.
func TestAnalyzeMatchesReference(t *testing.T) {
	for _, cfg := range []bench.Config{
		{Suppliers: 100, Parts: 200, Deliveries: 50, EmptyFrac: 0.05, DanglingFrac: 0.05},
		{Suppliers: 400, Parts: 800, Deliveries: 200, EmptyFrac: 0.05, DanglingFrac: 0.05},
		{Suppliers: 4000, Parts: 8000, Deliveries: 20000, Fanout: 8, EmptyFrac: 0.05, DanglingFrac: 0.05},
	} {
		st := bench.Generate(cfg)
		got := st.Analyze()
		storage.SeedReferenceStats(st)
		sameStats(t, fmt.Sprintf("%d/%d/%d", cfg.Suppliers, cfg.Parts, cfg.Deliveries), got, st.Analyze())
	}
	st := edgeStore(t)
	got := st.Analyze()
	storage.SeedReferenceStats(st)
	sameStats(t, "edges", got, st.Analyze())
}

// TestBulkCountersMaintainLikeRowByRow: the distinct counters the first
// Analyze seeds from sorted runs take deletes and updates exactly as
// counters fed row by row do. Deleting every red part retires "red" only if
// each run's reference count is its length.
func TestBulkCountersMaintainLikeRowByRow(t *testing.T) {
	cfg := bench.Config{Suppliers: 400, Parts: 800, Deliveries: 200}
	bulk, byRow := bench.Generate(cfg), bench.Generate(cfg)
	bulk.Analyze()
	storage.SeedReferenceStats(byRow)
	byRow.Analyze()
	for _, st := range []*storage.Store{bulk, byRow} {
		parts, err := st.Table("PART")
		if err != nil {
			t.Fatal(err)
		}
		updated := false
		for _, row := range parts.Elems() {
			part := row.(*value.Tuple)
			pid, _ := part.Get("pid")
			if color, _ := part.Get("color"); color == value.String("red") {
				if err := st.Delete("PART", pid.(value.OID)); err != nil {
					t.Fatal(err)
				}
			} else if !updated {
				name, _ := part.Get("pname")
				if err := st.Update("PART", pid.(value.OID), value.NewTuple(
					"pname", name, "price", value.Int(1000), "color", color)); err != nil {
					t.Fatal(err)
				}
				updated = true
			}
		}
	}
	got, want := bulk.Analyze(), byRow.Analyze()
	sameStats(t, "after deletes and an update", got, want)
	if n := got.DistinctValues("PART", "color"); n != 2 {
		t.Errorf("%d distinct colors after deleting every red part, want 2", n)
	}
	if got.Epoch != want.Epoch || bulk.StatsEpoch() != byRow.StatsEpoch() {
		t.Errorf("stats epoch %d (published %d), row by row %d (published %d)",
			bulk.StatsEpoch(), got.Epoch, byRow.StatsEpoch(), want.Epoch)
	}
}
