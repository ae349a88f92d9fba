package main

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkB12/ndv_only-8         	       1	  18377058 ns/op	 8551600 B/op	   67582 allocs/op
BenchmarkB12/histograms-8       	       3	   2271934 ns/op	 2303776 B/op	   19052 allocs/op
BenchmarkPlain 	     100	  1234.5 ns/op
some unrelated line
PASS
ok  	repro	0.168s
`
	f := parse(bufio.NewScanner(strings.NewReader(in)))
	if f.Goos != "linux" || f.Goarch != "amd64" || f.Pkg != "repro" || f.CPU == "" {
		t.Errorf("metadata mis-parsed: %+v", f)
	}
	if len(f.Results) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(f.Results), f.Results)
	}
	r := f.Results[0]
	if r.Name != "BenchmarkB12/ndv_only" || r.Iterations != 1 ||
		r.NsPerOp != 18377058 || r.BytesPerOp != 8551600 || r.AllocsPerOp != 67582 {
		t.Errorf("first result mis-parsed: %+v", r)
	}
	if p := f.Results[2]; p.Name != "BenchmarkPlain" || p.NsPerOp != 1234.5 || p.BytesPerOp != 0 {
		t.Errorf("plain result mis-parsed: %+v", p)
	}
}

func TestMergeReplacesAndAppends(t *testing.T) {
	base := File{
		Goos: "linux",
		Results: []Result{
			{Name: "BenchmarkA", NsPerOp: 100},
			{Name: "BenchmarkB", NsPerOp: 200},
		},
	}
	extra := File{Results: []Result{
		{Name: "BenchmarkB", NsPerOp: 250, Metrics: map[string]float64{"qps": 1000}},
		{Name: "BenchmarkServe", NsPerOp: 50},
	}}
	got := merge(base, extra)
	if len(got.Results) != 3 {
		t.Fatalf("merged %d results, want 3: %+v", len(got.Results), got.Results)
	}
	// Base order preserved, same-named entry replaced in place.
	if got.Results[0].Name != "BenchmarkA" || got.Results[1].Name != "BenchmarkB" ||
		got.Results[2].Name != "BenchmarkServe" {
		t.Fatalf("order = %+v", got.Results)
	}
	if got.Results[1].NsPerOp != 250 || got.Results[1].Metrics["qps"] != 1000 {
		t.Fatalf("replaced entry = %+v", got.Results[1])
	}
	if got.Goos != "linux" {
		t.Fatalf("base metadata lost: %q", got.Goos)
	}
}

func TestCompareFlagsOnlyRealRegressions(t *testing.T) {
	base := File{Results: []Result{
		{Name: "BenchmarkStable", NsPerOp: 100},
		{Name: "BenchmarkSlower", NsPerOp: 100},
		{Name: "BenchmarkFaster", NsPerOp: 100},
		{Name: "BenchmarkGone", NsPerOp: 100},
	}}
	fresh := File{Results: []Result{
		{Name: "BenchmarkStable", NsPerOp: 110}, // +10% — under threshold
		{Name: "BenchmarkSlower", NsPerOp: 200}, // +100% — regression
		{Name: "BenchmarkFaster", NsPerOp: 50},  // improvement
		{Name: "BenchmarkNew", NsPerOp: 9999},   // no baseline — skipped
	}}
	regressed, compared := compare(base, fresh, 25, os.Stdout)
	if compared != 3 {
		t.Fatalf("compared = %d, want 3 (common names only)", compared)
	}
	if regressed != 1 {
		t.Fatalf("regressed = %d, want 1 (only the +100%% entry)", regressed)
	}
	// A looser threshold lets everything pass.
	if r, _ := compare(base, fresh, 150, os.Stdout); r != 0 {
		t.Fatalf("regressed = %d at 150%% threshold, want 0", r)
	}
}

func TestReadFile(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	os.WriteFile(good, []byte(`{"goos": "linux", "results": [{"name": "BenchmarkX", "iterations": 5, "ns_per_op": 12.5}]}`), 0o644)
	f, err := readFile(good)
	if err != nil {
		t.Fatalf("readFile: %v", err)
	}
	if f.Goos != "linux" || len(f.Results) != 1 || f.Results[0].NsPerOp != 12.5 {
		t.Fatalf("readFile = %+v", f)
	}

	if _, err := readFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatalf("missing file must error")
	}

	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"results": [{]`), 0o644)
	if _, err := readFile(bad); err == nil {
		t.Fatalf("malformed JSON must error")
	}
}

// unreadable is a stdin that must be left alone: an open pipe nobody writes
// to, where a read never returns.
type unreadable struct{ t *testing.T }

func (u unreadable) Read([]byte) (int, error) {
	u.t.Error("merge mode read stdin")
	return 0, io.EOF
}

// TestMergeModeIgnoresStdin pins where the output starts from: in merge mode
// from the -out file, whether stdin is an open pipe or an empty one — reading
// the first would block forever, parsing the second would drop every result
// the file held — and otherwise from stdin.
func TestMergeModeIgnoresStdin(t *testing.T) {
	out := filepath.Join(t.TempDir(), "results.json")
	os.WriteFile(out, []byte(`{"goos": "linux", "results": [{"name": "BenchmarkKept", "iterations": 5, "ns_per_op": 12.5}]}`), 0o644)
	for name, stdin := range map[string]io.Reader{"open pipe": unreadable{t}, "empty pipe": strings.NewReader("")} {
		f := input(stdin, "extra.json", out)
		if len(f.Results) != 1 || f.Results[0].Name != "BenchmarkKept" {
			t.Errorf("%s: merge starts from %+v, want the results of -out", name, f.Results)
		}
		if f := input(stdin, "extra.json", filepath.Join(t.TempDir(), "new.json")); len(f.Results) != 0 {
			t.Errorf("%s: merge into a new file starts from %+v, want nothing", name, f.Results)
		}
	}
	f := input(strings.NewReader("BenchmarkX-2  10  100 ns/op\n"), "", out)
	if len(f.Results) != 1 || f.Results[0].Name != "BenchmarkX" {
		t.Errorf("without -merge the results come from stdin, got %+v", f.Results)
	}
}

func TestMergeCollisionsAndMetadataAdoption(t *testing.T) {
	// An empty base adopts the extra's metadata.
	extra := File{Goos: "darwin", Goarch: "arm64", Pkg: "x", CPU: "M",
		Results: []Result{{Name: "BenchmarkA", NsPerOp: 1}}}
	got := merge(File{}, extra)
	if got.Goos != "darwin" || got.Goarch != "arm64" || got.Pkg != "x" || got.CPU != "M" {
		t.Fatalf("empty base did not adopt metadata: %+v", got)
	}

	// Duplicate names inside extra: the last write wins, no duplicate entry.
	dup := File{Results: []Result{
		{Name: "BenchmarkA", NsPerOp: 10},
		{Name: "BenchmarkA", NsPerOp: 20},
	}}
	got = merge(File{Results: []Result{{Name: "BenchmarkA", NsPerOp: 1}}}, dup)
	if len(got.Results) != 1 || got.Results[0].NsPerOp != 20 {
		t.Fatalf("duplicate-name merge = %+v", got.Results)
	}

	// A populated base keeps its own metadata.
	got = merge(File{Goos: "linux"}, extra)
	if got.Goos != "linux" {
		t.Fatalf("populated base lost metadata: %q", got.Goos)
	}
}

func TestCompareThresholdEdges(t *testing.T) {
	base := File{Results: []Result{
		{Name: "BenchmarkExact", NsPerOp: 100},
		{Name: "BenchmarkHair", NsPerOp: 100},
		{Name: "BenchmarkZeroBase", NsPerOp: 0},
		{Name: "BenchmarkZeroFresh", NsPerOp: 100},
	}}
	fresh := File{Results: []Result{
		{Name: "BenchmarkExact", NsPerOp: 125},     // exactly +25%: not past the threshold
		{Name: "BenchmarkHair", NsPerOp: 125.0001}, // a hair past: regression
		{Name: "BenchmarkZeroBase", NsPerOp: 50},   // zero baseline: skipped
		{Name: "BenchmarkZeroFresh", NsPerOp: 0},   // zero fresh: skipped
	}}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open devnull: %v", err)
	}
	defer devnull.Close()
	regressed, compared := compare(base, fresh, 25, devnull)
	if compared != 2 {
		t.Fatalf("compared = %d, want 2 (zero-ns entries skipped)", compared)
	}
	if regressed != 1 {
		t.Fatalf("regressed = %d, want 1 (exactly-at-threshold passes)", regressed)
	}
}

func TestCompareDisjointFiles(t *testing.T) {
	base := File{Results: []Result{{Name: "BenchmarkOnlyBase", NsPerOp: 1}}}
	fresh := File{Results: []Result{{Name: "BenchmarkOnlyFresh", NsPerOp: 99999}}}
	regressed, compared := compare(base, fresh, 25, os.Stdout)
	if regressed != 0 || compared != 0 {
		t.Fatalf("disjoint compare = %d regressed, %d compared; want 0, 0", regressed, compared)
	}
}

func TestAllocGateArmsAndCeiling(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open devnull: %v", err)
	}
	defer devnull.Close()
	f := File{Results: []Result{
		// Scalar and tuple-parallel arms are not gated, whatever they allocate.
		{Name: "BenchmarkB14/scalar/S400", AllocsPerOp: 100000, NsPerOp: 1},
		{Name: "BenchmarkB14/parallel/S400", AllocsPerOp: 100000, NsPerOp: 1},
		// Within the ceiling.
		{Name: "BenchmarkB14/vectorized/S400", AllocsPerOp: 40, NsPerOp: 1},
		{Name: "BenchmarkB14/parallel-vectorized/S400", AllocsPerOp: 300, NsPerOp: 1},
		// Over it — and the _exec suffix must still count as a batch arm.
		{Name: "BenchmarkB1/vectorized_exec/S400", AllocsPerOp: 1300, NsPerOp: 1},
		// Zero alloc counts (no -benchmem): skipped.
		{Name: "BenchmarkB3/vectorized/S400", NsPerOp: 1},
	}}
	failed, compared := allocGate(f, 512, regexp.MustCompile(""), devnull)
	if compared != 3 {
		t.Fatalf("compared = %d, want 3 (non-batch and alloc-less entries skipped)", compared)
	}
	if failed != 1 {
		t.Fatalf("failed = %d, want 1 (only the 1300-alloc arm)", failed)
	}
	// A higher ceiling clears the failing arm.
	if fl, _ := allocGate(f, 2000, regexp.MustCompile(""), devnull); fl != 0 {
		t.Fatalf("failed = %d at a ceiling of 2000, want 0", fl)
	}
}

func TestAllocGateMatchRestrictsArms(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open devnull: %v", err)
	}
	defer devnull.Close()
	f := File{Results: []Result{
		// Another scale: over the ceiling, but excluded by -match S400.
		{Name: "BenchmarkB13/vectorized/S1600", AllocsPerOp: 900, NsPerOp: 1},
		// Full scale: within it.
		{Name: "BenchmarkB13/vectorized/S400", AllocsPerOp: 40, NsPerOp: 1},
	}}
	failed, compared := allocGate(f, 512, regexp.MustCompile("S400"), devnull)
	if compared != 1 || failed != 0 {
		t.Fatalf("S400-matched gate = %d failed, %d compared; want 0, 1", failed, compared)
	}
	// Without the restriction the other arm fails.
	failed, compared = allocGate(f, 512, regexp.MustCompile(""), devnull)
	if compared != 2 || failed != 1 {
		t.Fatalf("unrestricted gate = %d failed, %d compared; want 1, 2", failed, compared)
	}
}
