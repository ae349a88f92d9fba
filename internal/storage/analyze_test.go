package storage

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

// analyzeFixture builds a store with known statistics: 4 suppliers (2
// distinct names, parts sets of sizes 0,1,2,3) and 3 parts (3 distinct
// pnames, 2 distinct colors).
func analyzeFixture(t *testing.T) *Store {
	t.Helper()
	st := New(schema.SupplierPart())
	for i, color := range []string{"red", "red", "blue"} {
		if _, err := st.Insert("PART", value.NewTuple(
			"pname", value.String([]string{"a", "b", "c"}[i]),
			"price", value.Int(int64(10*i)),
			"color", value.String(color),
		)); err != nil {
			t.Fatal(err)
		}
	}
	names := []string{"n1", "n1", "n2", "n2"}
	for i, n := range names {
		parts := value.EmptySet()
		for j := 0; j < i; j++ {
			parts.Add(value.NewTuple("pid", value.OID(j+1)))
		}
		if _, err := st.Insert("SUPPLIER", value.NewTuple(
			"sname", value.String(n),
			"parts", parts,
		)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestAnalyzeCollectsTableStats(t *testing.T) {
	st := analyzeFixture(t)
	stats := st.Analyze()

	if got := stats.RowCount("SUPPLIER"); got != 4 {
		t.Errorf("RowCount(SUPPLIER) = %d, want 4", got)
	}
	if got := stats.RowCount("PART"); got != 3 {
		t.Errorf("RowCount(PART) = %d, want 3", got)
	}
	if got := stats.RowCount("DELIVERY"); got != 0 {
		t.Errorf("RowCount(DELIVERY) = %d, want 0 (empty extent)", got)
	}
	if got := stats.RowCount("NOPE"); got != -1 {
		t.Errorf("RowCount(NOPE) = %d, want -1 (unknown)", got)
	}

	if got := stats.DistinctValues("SUPPLIER", "sname"); got != 2 {
		t.Errorf("DistinctValues(SUPPLIER, sname) = %d, want 2", got)
	}
	if got := stats.DistinctValues("PART", "color"); got != 2 {
		t.Errorf("DistinctValues(PART, color) = %d, want 2", got)
	}
	if got := stats.DistinctValues("PART", "pname"); got != 3 {
		t.Errorf("DistinctValues(PART, pname) = %d, want 3", got)
	}
	// The id field is unique.
	if got := stats.DistinctValues("SUPPLIER", "eid"); got != 4 {
		t.Errorf("DistinctValues(SUPPLIER, eid) = %d, want 4", got)
	}
	if got := stats.DistinctValues("PART", "nope"); got != 0 {
		t.Errorf("DistinctValues of unknown attr = %d, want 0", got)
	}

	// parts sets have sizes 0,1,2,3 → average 1.5.
	if got := stats.AvgSetSize("SUPPLIER", "parts"); got != 1.5 {
		t.Errorf("AvgSetSize(SUPPLIER, parts) = %v, want 1.5", got)
	}
	// Scalar attributes report 0.
	if got := stats.AvgSetSize("SUPPLIER", "sname"); got != 0 {
		t.Errorf("AvgSetSize(SUPPLIER, sname) = %v, want 0", got)
	}

	// An extent that was never analyzed is unknown (-1), not empty (see
	// TestUnknownExtentSizeIsNotEmpty in internal/plan).
	if got := stats.RowCount("SUPPLIER"); got != 4 {
		t.Errorf("RowCount(SUPPLIER) = %d, want 4", got)
	}
	if got := stats.RowCount("NOPE"); got != -1 {
		t.Errorf("RowCount(NOPE) = %d, want -1 (unknown, not empty)", got)
	}
}

// TestAnalyzeMixedScalarSetAttribute: an attribute that is a set in some
// rows and a scalar in others must be recorded as unknown. The old behavior
// skipped the set rows but still emitted a Distinct entry covering only the
// scalar rows — an undercounted NDV presented as exact — and dropped the
// AvgSetSize silently.
func TestAnalyzeMixedScalarSetAttribute(t *testing.T) {
	st := New(schema.SupplierPart())
	// Three suppliers: "parts" is a set for two of them, a scalar for one.
	for i := 0; i < 2; i++ {
		if _, err := st.Insert("SUPPLIER", value.NewTuple(
			"sname", value.String("n"),
			"parts", value.NewSet(value.NewTuple("pid", value.OID(1))),
		)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Insert("SUPPLIER", value.NewTuple(
		"sname", value.String("n"),
		"parts", value.Int(7),
	)); err != nil {
		t.Fatal(err)
	}
	stats := st.Analyze()

	if got := stats.DistinctValues("SUPPLIER", "parts"); got != 0 {
		t.Errorf("mixed attribute has Distinct = %d, want 0 (unknown)", got)
	}
	if got := stats.AvgSetSize("SUPPLIER", "parts"); got != 0 {
		t.Errorf("mixed attribute has AvgSetSize = %v, want 0 (unknown)", got)
	}
	ts := stats.Tables["SUPPLIER"]
	if len(ts.Mixed) != 1 || ts.Mixed[0] != "parts" {
		t.Errorf("Mixed = %v, want [parts]", ts.Mixed)
	}
	// Mixed attributes still appear in the attribute listing.
	found := false
	for _, a := range stats.Attributes("SUPPLIER") {
		if a == "parts" {
			found = true
		}
	}
	if !found {
		t.Errorf("Attributes(SUPPLIER) = %v misses the mixed attribute", stats.Attributes("SUPPLIER"))
	}
	// Scalar statistics of the other attributes are unaffected.
	if got := stats.DistinctValues("SUPPLIER", "sname"); got != 1 {
		t.Errorf("DistinctValues(sname) = %d, want 1", got)
	}
	if !strings.Contains(stats.String(), "mixed scalar/set") {
		t.Errorf("stats report does not mark the mixed attribute:\n%s", stats.String())
	}
}

// TestAnalyzePartiallySetAttribute: set-valued in some rows, absent in the
// rest — shape unknown, no AvgSetSize, listed as mixed.
func TestAnalyzePartiallySetAttribute(t *testing.T) {
	st := New(schema.SupplierPart())
	if _, err := st.Insert("SUPPLIER", value.NewTuple(
		"sname", value.String("a"),
		"parts", value.NewSet(value.NewTuple("pid", value.OID(1))),
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert("SUPPLIER", value.NewTuple(
		"sname", value.String("b"),
	)); err != nil {
		t.Fatal(err)
	}
	stats := st.Analyze()
	if got := stats.AvgSetSize("SUPPLIER", "parts"); got != 0 {
		t.Errorf("partially-set attribute has AvgSetSize = %v, want 0", got)
	}
	if ts := stats.Tables["SUPPLIER"]; len(ts.Mixed) != 1 || ts.Mixed[0] != "parts" {
		t.Errorf("Mixed = %v, want [parts]", ts.Mixed)
	}
}

// TestAnalyzeRecordsIndexes: Analyze surfaces the index registry so the
// planner can admit index access paths.
func TestAnalyzeRecordsIndexes(t *testing.T) {
	st := analyzeFixture(t)
	if err := st.CreateIndex("PART", "color", HashIndex); err != nil {
		t.Fatal(err)
	}
	if err := st.CreateIndex("PART", "price", OrderedIndex); err != nil {
		t.Fatal(err)
	}
	stats := st.Analyze()
	if got := stats.IndexKind("PART", "color"); got != "hash" {
		t.Errorf("IndexKind(PART, color) = %q, want hash", got)
	}
	if got := stats.IndexKind("PART", "price"); got != "ordered" {
		t.Errorf("IndexKind(PART, price) = %q, want ordered", got)
	}
	if got := stats.IndexKind("PART", "pname"); got != "" {
		t.Errorf("IndexKind(PART, pname) = %q, want \"\"", got)
	}
	if got := stats.IndexKind("NOPE", "x"); got != "" {
		t.Errorf("IndexKind(NOPE, x) = %q, want \"\"", got)
	}
	if !strings.Contains(stats.String(), "[hash index]") ||
		!strings.Contains(stats.String(), "[ordered index]") {
		t.Errorf("stats report does not mark indexed attributes:\n%s", stats.String())
	}
}

func TestAnalyzeDoesNotPerturbIOMeters(t *testing.T) {
	st := analyzeFixture(t)
	st.ResetStats()
	_ = st.Analyze()
	if got := st.Stats(); got.ObjectReads != 0 || got.ExtentScans != 0 {
		t.Errorf("Analyze touched the I/O meters: %+v", got)
	}
}

// TestAnalyzeBuildsHistograms: scalar attributes get value histograms,
// set-valued attributes element histograms, and the fractions line up with
// the fixture's known distribution.
func TestAnalyzeBuildsHistograms(t *testing.T) {
	st := analyzeFixture(t)
	stats := st.Analyze()

	h := stats.Histogram("PART", "color")
	if h == nil {
		t.Fatal("no histogram for PART.color")
	}
	if got := h.EqFraction(value.String("red")); got != 2.0/3.0 {
		t.Errorf("EqFraction(red) = %v, want 2/3", got)
	}
	if got := h.EqFraction(value.String("blue")); got != 1.0/3.0 {
		t.Errorf("EqFraction(blue) = %v, want 1/3", got)
	}
	// The set-valued attribute's histogram describes the pooled elements:
	// sets of sizes 0,1,2,3 over pid tuples → 6 elements total.
	eh := stats.Histogram("SUPPLIER", "parts")
	if eh == nil {
		t.Fatal("no element histogram for SUPPLIER.parts")
	}
	if eh.Rows != 6 {
		t.Errorf("element histogram rows = %d, want 6", eh.Rows)
	}
	if got := stats.Histogram("SUPPLIER", "nope"); got != nil {
		t.Errorf("unknown attribute histogram = %v, want nil", got)
	}
	if got := stats.Histogram("NOPE", "x"); got != nil {
		t.Errorf("unknown extent histogram = %v, want nil", got)
	}
}

// TestAnalyzeHistogramEdgeCases: an empty extent has no histograms at all, a
// single-valued attribute collapses to one exact bucket, and a mixed
// scalar/set attribute stays unknown — no histogram that would present a
// partial distribution as the whole.
func TestAnalyzeHistogramEdgeCases(t *testing.T) {
	st := analyzeFixture(t)
	stats := st.Analyze()
	// DELIVERY is empty: analyzed (rows 0) but without histograms.
	if ts, ok := stats.Tables["DELIVERY"]; !ok {
		t.Fatal("empty extent not analyzed")
	} else if len(ts.Hist) != 0 || len(ts.ElemHist) != 0 {
		t.Errorf("empty extent has histograms: %v %v", ts.Hist, ts.ElemHist)
	}

	// Single-value attribute: one bucket, exact.
	single := New(schema.SupplierPart())
	for i := 0; i < 5; i++ {
		if _, err := single.Insert("PART", value.NewTuple(
			"pname", value.String("same"), "price", value.Int(9),
			"color", value.String("red"))); err != nil {
			t.Fatal(err)
		}
	}
	h := single.Analyze().Histogram("PART", "pname")
	if h == nil || len(h.Buckets) != 1 || h.Buckets[0].NDV != 1 || h.Buckets[0].Rows != 5 {
		t.Fatalf("single-value histogram = %v, want one exact bucket", h)
	}
	if got := h.EqFraction(value.String("same")); got != 1 {
		t.Errorf("EqFraction(same) = %v, want 1", got)
	}

	// Mixed scalar/set: no histogram under either map.
	mixed := New(schema.SupplierPart())
	if _, err := mixed.Insert("SUPPLIER", value.NewTuple(
		"sname", value.String("a"),
		"parts", value.NewSet(value.NewTuple("pid", value.OID(1))))); err != nil {
		t.Fatal(err)
	}
	if _, err := mixed.Insert("SUPPLIER", value.NewTuple(
		"sname", value.String("b"), "parts", value.Int(7))); err != nil {
		t.Fatal(err)
	}
	if got := mixed.Analyze().Histogram("SUPPLIER", "parts"); got != nil {
		t.Errorf("mixed attribute has a histogram: %v", got)
	}
}

// TestAnalyzeMemoizedAndInvalidated: Analyze memoizes its result; Insert and
// CreateIndex invalidate it, and the rebuilt statistics (histograms
// included) reflect the new state.
func TestAnalyzeMemoizedAndInvalidated(t *testing.T) {
	st := analyzeFixture(t)
	first := st.Analyze()
	if second := st.Analyze(); second != first {
		t.Fatal("Analyze did not memoize between mutations")
	}

	if _, err := st.Insert("PART", value.NewTuple(
		"pname", value.String("d"), "price", value.Int(99),
		"color", value.String("green"))); err != nil {
		t.Fatal(err)
	}
	rebuilt := st.Analyze()
	if rebuilt == first {
		t.Fatal("Analyze result not invalidated by Insert")
	}
	if got := rebuilt.RowCount("PART"); got != 4 {
		t.Errorf("rebuilt RowCount(PART) = %d, want 4", got)
	}
	h := rebuilt.Histogram("PART", "color")
	if h == nil || h.EqFraction(value.String("green")) != 0.25 {
		t.Errorf("rebuilt histogram misses the inserted row: %v", h)
	}
	// Stale pre-insert statistics still answer from their snapshot.
	if old := first.Histogram("PART", "color"); old.EqFraction(value.String("green")) != 0 {
		t.Errorf("old snapshot mutated: %v", old)
	}

	// Index registration invalidates too (index kinds are collected).
	if err := st.CreateIndex("PART", "color", HashIndex); err != nil {
		t.Fatal(err)
	}
	withIdx := st.Analyze()
	if withIdx == rebuilt {
		t.Fatal("Analyze result not invalidated by CreateIndex")
	}
	if got := withIdx.IndexKind("PART", "color"); got != "hash" {
		t.Errorf("rebuilt IndexKind = %q, want hash", got)
	}
}

// TestDBStatsStringHistograms: the report marks attributes that carry
// histograms, and Histogram.String renders buckets.
func TestDBStatsStringHistograms(t *testing.T) {
	stats := analyzeFixture(t).Analyze()
	out := stats.String()
	if !strings.Contains(out, "hist(") {
		t.Errorf("stats report does not mention histograms:\n%s", out)
	}
	hs := stats.Histogram("PART", "price").String()
	if !strings.Contains(hs, "equi-depth 3 rows") {
		t.Errorf("histogram rendering = %q", hs)
	}
}

func TestDBStatsString(t *testing.T) {
	stats := analyzeFixture(t).Analyze()
	out := stats.String()
	for _, want := range []string{"SUPPLIER: 4 rows", "PART: 3 rows",
		".parts: set-valued, avg 1.5 elems", ".color: 2 distinct"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats report missing %q:\n%s", want, out)
		}
	}
}

// TestDistinctCountsExactUnderChurn retires a value by deleting its only row
// and brings it back, deletes and reinserts a shared value, and updates a row
// to its own values: the incrementally maintained distinct counts must equal
// a fresh Analyze of the same contents.
func TestDistinctCountsExactUnderChurn(t *testing.T) {
	s := newStore(t)
	insertPart(t, s, "a", "red", 10)
	b := insertPart(t, s, "b", "red", 20)
	c := insertPart(t, s, "c", "blue", 30)
	d := insertPart(t, s, "d", "green", 10)
	s.Analyze()
	mustDelete(t, s, "PART", c) // retires "c", "blue" and 30
	insertPart(t, s, "c", "blue", 30)
	mustDelete(t, s, "PART", b) // "red" keeps a row
	insertPart(t, s, "b", "red", 20)
	mustUpdate(t, s, d, "d", "green", 10)
	var buf strings.Builder
	if err := s.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := LoadJSON(s.Catalog(), strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	got, want := s.Analyze().Tables["PART"].Distinct, fresh.Analyze().Tables["PART"].Distinct
	if len(got) != len(want) {
		t.Fatalf("Distinct = %v, fresh Analyze %v", got, want)
	}
	for attr, n := range want {
		if got[attr] != n {
			t.Errorf("Distinct[%s] = %d, fresh Analyze %d", attr, got[attr], n)
		}
	}
}

// TestDistinctCounterBounded runs serve.mixed's writer pattern — inserts of
// never-repeated names, each followed by a delete — 10 000 times: retired
// slots are reused, so the counter's slices stay within a constant of the
// live distinct count.
func TestDistinctCounterBounded(t *testing.T) {
	s := newStore(t)
	for i := 0; i < 8; i++ {
		insertPart(t, s, fmt.Sprintf("seed%d", i), "red", int64(i))
	}
	s.Analyze()
	for i := 0; i < 10000; i++ {
		oid := insertPart(t, s, fmt.Sprintf("n%d", i), "red", int64(i%7))
		mustDelete(t, s, "PART", oid)
	}
	s.statsMu.Lock()
	c := s.live["PART"].counters["pname"]
	n, slots, chains := c.n, len(c.vals), len(c.heads)
	s.statsMu.Unlock()
	if n != 8 {
		t.Fatalf("distinct pnames = %d, want the 8 live ones", n)
	}
	if slots > n+1 || chains != n {
		t.Fatalf("counter holds %d slots and %d chains for %d live values", slots, chains, n)
	}
}

// TestDistinctCounterAgainstMap checks add/remove against a map of reference
// counts over a small domain, so values retire and come back into reused
// slots.
func TestDistinctCounterAgainstMap(t *testing.T) {
	c := distinctCounter{heads: map[uint64]int32{}}
	model := map[value.Value]int{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		var v value.Value = value.Int(int64(rng.Intn(60)))
		if rng.Intn(3) == 0 {
			v = value.String(fmt.Sprintf("s%d", rng.Intn(40)))
		}
		if rng.Intn(5) < 3 {
			c.add(v)
			model[v]++
		} else {
			c.remove(v)
			if model[v]--; model[v] <= 0 {
				delete(model, v)
			}
		}
		if c.n != len(model) {
			t.Fatalf("op %d: counter has %d distinct values, model %d", i, c.n, len(model))
		}
	}
	for v, refs := range model {
		s := c.heads[value.Hash(v)]
		for s != 0 && !value.Equal(c.vals[s-1], v) {
			s = c.next[s-1]
		}
		if s == 0 || int(c.refs[s-1]) != refs {
			t.Fatalf("value %v: counter lost it or its %d references", v, refs)
		}
	}
}
