package storage

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

// indexFixture builds a PART extent with known attribute values: prices
// 10, 20, 20, 30, 40 and colors red, blue, red, blue, red.
func indexFixture(t *testing.T) *Store {
	t.Helper()
	st := New(schema.SupplierPart())
	prices := []int64{10, 20, 20, 30, 40}
	colors := []string{"red", "blue", "red", "blue", "red"}
	for i := range prices {
		if _, err := st.Insert("PART", value.NewTuple(
			"pname", value.String([]string{"a", "b", "c", "d", "e"}[i]),
			"price", value.Int(prices[i]),
			"color", value.String(colors[i]),
		)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func names(t *testing.T, rows []value.Value) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	for _, r := range rows {
		out[string(r.(*value.Tuple).MustGet("pname").(value.String))] = true
	}
	return out
}

func TestHashIndexLookup(t *testing.T) {
	st := indexFixture(t)
	if err := st.CreateIndex("PART", "color", HashIndex); err != nil {
		t.Fatal(err)
	}
	rows, err := st.IndexLookup("PART", "color", value.String("red"))
	if err != nil {
		t.Fatal(err)
	}
	got := names(t, rows)
	for _, want := range []string{"a", "c", "e"} {
		if !got[want] {
			t.Errorf("lookup(red) misses %s: %v", want, got)
		}
	}
	if len(got) != 3 {
		t.Errorf("lookup(red) = %d rows, want 3", len(got))
	}
	// Missing key: empty, no error.
	rows, err = st.IndexLookup("PART", "color", value.String("mauve"))
	if err != nil || len(rows) != 0 {
		t.Errorf("lookup(mauve) = %v, %v; want empty", rows, err)
	}
	// Hash indexes refuse range probes.
	if _, err := st.IndexRange("PART", "color", nil, nil, false, false); err == nil {
		t.Error("range probe over a hash index must error")
	}
	// Unindexed attribute and unknown extent error.
	if _, err := st.IndexLookup("PART", "pname", value.String("a")); err == nil {
		t.Error("lookup on unindexed attribute must error")
	}
	if err := st.CreateIndex("NOPE", "x", HashIndex); err == nil {
		t.Error("CreateIndex on unknown extent must error")
	}
	if err := st.CreateIndex("PART", "price", IndexKind(99)); err == nil {
		t.Error("CreateIndex with unknown kind must error")
	}
}

// TestIndexRefusesIncompleteRows: an index access path must fail exactly
// where the scan-based plan's field read would, so indexing an attribute
// some object lacks errors — at build time, and at probe time after an
// invalidating insert.
func TestIndexRefusesIncompleteRows(t *testing.T) {
	st := indexFixture(t)
	if _, err := st.Insert("PART", value.NewTuple(
		"pname", value.String("noprice"),
		"color", value.String("red"),
	)); err != nil {
		t.Fatal(err)
	}
	if err := st.CreateIndex("PART", "price", OrderedIndex); err == nil {
		t.Fatal("CreateIndex over an incomplete attribute must error")
	}
	// Complete at build time, incomplete after an insert: the lazy rebuild
	// surfaces the error on the next probe.
	if err := st.CreateIndex("PART", "color", HashIndex); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert("PART", value.NewTuple(
		"pname", value.String("nocolor"),
		"price", value.Int(5),
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.IndexLookup("PART", "color", value.String("red")); err == nil {
		t.Fatal("probe after an invalidating incomplete insert must error")
	}
}

func TestOrderedIndexLookupAndRange(t *testing.T) {
	st := indexFixture(t)
	if err := st.CreateIndex("PART", "price", OrderedIndex); err != nil {
		t.Fatal(err)
	}
	// Equality works on ordered indexes too, duplicates included.
	rows, err := st.IndexLookup("PART", "price", value.Int(20))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("lookup(20) = %d rows, want 2", len(rows))
	}

	cases := []struct {
		lo, hi         value.Value
		loIncl, hiIncl bool
		want           int
	}{
		{value.Int(20), value.Int(30), true, true, 3},  // [20, 30]
		{value.Int(20), value.Int(30), false, true, 1}, // (20, 30]
		{value.Int(20), value.Int(30), true, false, 2}, // [20, 30)
		{nil, value.Int(20), false, true, 3},           // ≤ 20
		{value.Int(30), nil, false, false, 1},          // > 30
		{nil, nil, false, false, 5},                    // unbounded
		{value.Int(99), nil, true, false, 0},           // empty high range
	}
	for i, c := range cases {
		rows, err := st.IndexRange("PART", "price", c.lo, c.hi, c.loIncl, c.hiIncl)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != c.want {
			t.Errorf("case %d: range = %d rows, want %d", i, len(rows), c.want)
		}
	}
}

// TestIndexInvalidatedOnInsertAndRebuilt: Insert marks the index stale; the
// next probe rebuilds and sees the new row.
func TestIndexInvalidatedOnInsertAndRebuilt(t *testing.T) {
	st := indexFixture(t)
	if err := st.CreateIndex("PART", "color", HashIndex); err != nil {
		t.Fatal(err)
	}
	before, err := st.IndexLookup("PART", "color", value.String("red"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert("PART", value.NewTuple(
		"pname", value.String("f"),
		"price", value.Int(99),
		"color", value.String("red"),
	)); err != nil {
		t.Fatal(err)
	}
	after, err := st.IndexLookup("PART", "color", value.String("red"))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before)+1 {
		t.Fatalf("after insert lookup(red) = %d rows, want %d", len(after), len(before)+1)
	}
}

// TestEnsureIndexes creates hash indexes but keeps an existing ordered one.
func TestEnsureIndexes(t *testing.T) {
	st := indexFixture(t)
	if err := st.CreateIndex("PART", "price", OrderedIndex); err != nil {
		t.Fatal(err)
	}
	if err := st.EnsureIndexes("PART", "price", "color"); err != nil {
		t.Fatal(err)
	}
	idxs := st.IndexedAttrs("PART")
	if idxs["price"] != OrderedIndex {
		t.Errorf("EnsureIndexes replaced the existing ordered index: %v", idxs)
	}
	if idxs["color"] != HashIndex {
		t.Errorf("EnsureIndexes did not create the hash index: %v", idxs)
	}
	if got := st.IndexedAttrs("SUPPLIER"); got != nil {
		t.Errorf("IndexedAttrs(SUPPLIER) = %v, want nil", got)
	}
}

// TestIndexProbeMetering: probes count IndexProbes and the fetched objects
// meter ObjectReads; extent scans charge page-granular I/O.
func TestIndexProbeMetering(t *testing.T) {
	st := indexFixture(t)
	if err := st.CreateIndex("PART", "color", HashIndex); err != nil {
		t.Fatal(err)
	}
	st.ResetStats()
	rows, err := st.IndexLookup("PART", "color", value.String("red"))
	if err != nil {
		t.Fatal(err)
	}
	got := st.Stats()
	if got.IndexProbes != 1 {
		t.Errorf("IndexProbes = %d, want 1", got.IndexProbes)
	}
	if got.ObjectReads != len(rows) {
		t.Errorf("ObjectReads = %d, want %d (one per fetched object)", got.ObjectReads, len(rows))
	}

	// A full extent scan touches every page once — 5 objects on one page at
	// the default clustering factor.
	st.ResetStats()
	if _, err := st.Table("PART"); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.PageReads != 1 || got.ExtentScans != 1 {
		t.Errorf("scan metering = %+v, want 1 page read, 1 extent scan", got)
	}
	// The cached re-scan still pays the logical page I/O.
	if _, err := st.Table("PART"); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.PageReads != 2 {
		t.Errorf("cached re-scan PageReads = %d, want 2", got.PageReads)
	}
}

// TestConcurrentIndexProbes: concurrent probes (as the parallel operators
// issue) are race-clean, including the lazy rebuild after an insert.
func TestConcurrentIndexProbes(t *testing.T) {
	st := indexFixture(t)
	if err := st.CreateIndex("PART", "price", OrderedIndex); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert("PART", value.NewTuple(
		"pname", value.String("g"),
		"price", value.Int(20),
		"color", value.String("red"),
	)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows, err := st.IndexLookup("PART", "price", value.Int(20))
			if err != nil || len(rows) != 3 {
				t.Errorf("concurrent lookup(20) = %d rows, %v; want 3", len(rows), err)
			}
		}()
	}
	wg.Wait()
}

// TestIndexExistsCostIsKeySizeFree: an existence probe stops at the first
// candidate that is visible and still holds the key, and copies none of the
// key's oids out of the index, so one costs the same allocations and bytes on
// a key shared by 300 rows as on one shared by 3 000, through either index
// kind — also when the key's first rows were deleted or moved off it.
func TestIndexExistsCostIsKeySizeFree(t *testing.T) {
	for _, kind := range []IndexKind{HashIndex, OrderedIndex} {
		st := New(schema.SupplierPart())
		var first []value.OID
		for i, n := range []int{300, 3000} {
			for j := range n {
				oid, err := st.Insert("PART", value.NewTuple("pname", value.String("p"),
					"price", value.Int(int64(i)), "color", value.String("c")))
				if err != nil {
					t.Fatal(err)
				}
				if j < 2 {
					first = append(first, oid)
				}
			}
		}
		if err := st.CreateIndex("PART", "price", kind); err != nil {
			t.Fatal(err)
		}
		// Key 1 loses its first row to a delete and its second to an update.
		if err := st.Delete("PART", first[2]); err != nil {
			t.Fatal(err)
		}
		if err := st.Update("PART", first[3], value.NewTuple("pname", value.String("p"),
			"price", value.Int(7), "color", value.String("c"))); err != nil {
			t.Fatal(err)
		}
		var cost [2][2]float64 // per key: allocations, bytes
		for key := range 2 {
			probe := func() {
				if ok, err := st.IndexExists("PART", "price", value.Int(int64(key))); err != nil || !ok {
					t.Fatalf("%s: IndexExists(%d) = %t, %v", kind, key, ok, err)
				}
			}
			cost[key][0] = testing.AllocsPerRun(100, probe)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range 100 {
				probe()
			}
			runtime.ReadMemStats(&after)
			cost[key][1] = float64(after.TotalAlloc-before.TotalAlloc) / 100
		}
		t.Logf("%s: %v allocations and bytes per probe", kind, cost[0])
		if cost[0] != cost[1] {
			t.Errorf("%s: IndexExists on 300 rows costs %v allocations and bytes, on 3 000 rows %v", kind, cost[0], cost[1])
		}
		if ok, err := st.IndexExists("PART", "price", value.Int(2)); err != nil || ok {
			t.Errorf("%s: IndexExists(absent key) = %t, %v", kind, ok, err)
		}
	}
}
