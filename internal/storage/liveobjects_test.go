package storage_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/bench"
	"repro/internal/storage"
)

// liveObjectsPerRowMax is the live-heap ceiling TestStoreLiveObjects holds a
// stored row to: the measured 10.0 objects per row, plus 10 %, of tuples that
// carry their slots and stored sets compacted to one allocation each. With a
// tuple's values and a set's two arrays allocated apart it measured 15.9
// (ceiling 17.5), and before the page-indexed object table and the flat
// distinct counters, 20.8.
const liveObjectsPerRowMax = 11.0

// TestStoreLiveObjects gates the heap objects a stored row keeps alive once
// the store is populated, indexed and analyzed — the objects every GC cycle
// marks. It is deterministic: the store is generated from a fixed seed and
// measured after two full collections. The race detector's runtime
// allocates differently, so the gate is skipped under -race.
func TestStoreLiveObjects(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts differ under the race detector")
			}
		}
	}
	heapObjects := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	before := heapObjects()
	st := bench.Generate(bench.Config{Suppliers: 1000, Parts: 2000, Deliveries: 5000,
		Fanout: 8, EmptyFrac: 0.05, Seed: 94})
	for attr, kind := range map[string]storage.IndexKind{"color": storage.HashIndex, "price": storage.OrderedIndex} {
		if err := st.CreateIndex("PART", attr, kind); err != nil {
			t.Fatal(err)
		}
	}
	st.Analyze()
	after := heapObjects()
	rows := st.Size("SUPPLIER") + st.Size("PART") + st.Size("DELIVERY")
	perRow := float64(after-before) / float64(rows)
	runtime.KeepAlive(st)
	t.Logf("%d live heap objects for %d rows: %.1f per row", after-before, rows, perRow)
	if perRow > liveObjectsPerRowMax {
		t.Errorf("%.1f live heap objects per stored row, want at most %.1f", perRow, liveObjectsPerRowMax)
	}
}
