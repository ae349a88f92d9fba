// Command benchjson converts `go test -bench` text output into a machine-
// readable JSON perf-trajectory file. CI runs the benchmark suite once per
// commit and archives the result (make bench-json → BENCH_RESULTS.json), so
// regressions show up as a number series across commits instead of
// anecdotes in PR descriptions.
//
// Usage:
//
//	go test -bench=. -benchmem -run '^$' . | benchjson -out BENCH_RESULTS.json
//	benchjson -merge serve.json -out BENCH_RESULTS.json
//	benchjson -compare -threshold 25 BENCH_RESULTS.json fresh.json
//	benchjson -alloc-gate 512 -match S400 fresh.json
//
// Only benchmark result lines are parsed; everything else (pass/fail
// trailers, goos/goarch headers) is carried into the metadata block or
// ignored. The tool never fails on unparseable lines — a half-broken
// benchmark run should still archive what it produced.
//
// -merge folds the results of another benchjson file (for example the
// closed-loop serving results cmd/adlload emits) into the output, replacing
// same-named entries and keeping the rest; it updates -out in place and never
// reads stdin. -compare is the CI regression gate: it compares a
// baseline file against a fresh run and fails (exit 1) when any benchmark
// present in both regressed its wall time by more than -threshold percent.
// Serving metrics (Metrics map) ride along in both modes but are reported
// only — run-to-run QPS on shared CI runners is too noisy to gate on.
// -alloc-gate checks the batch arms inside ONE file: each vectorized (and
// parallel-vectorized) benchmark must stay at or under the given allocs/op.
// Allocation counts are deterministic, so unlike wall time this gate is safe
// at a tight threshold on shared runners. -match restricts the gate to names
// that match (CI gates the full-scale S400 arms, whose inputs are thousands of
// rows: a ceiling of a few hundred allocations is then a statement that
// nothing is allocated per row). The ceiling is absolute, not a share of the
// scalar twin: since scalars are compiled the scalar arm of B13 allocates as
// little as the batch arm does, and a ratio to it says nothing.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Metrics carries named measurements that are not per-op wall time —
	// the serving driver records p50_ns, p99_ns, qps, clients here.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// File is the emitted artifact shape.
type File struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

// benchLine matches e.g.
//
//	BenchmarkB12/histograms-8   42   2271934 ns/op   2303776 B/op   19052 allocs/op
var benchLine = regexp.MustCompile(
	`^(Benchmark\S*?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+(\d+) allocs/op)?`)

func parse(lines *bufio.Scanner) File {
	var f File
	for lines.Scan() {
		line := lines.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			f.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			f.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			f.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			f.CPU = strings.TrimPrefix(line, "cpu: ")
		default:
			m := benchLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			r := Result{Name: m[1]}
			r.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
			r.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
			if m[4] != "" {
				r.BytesPerOp, _ = strconv.ParseFloat(m[4], 64)
			}
			if m[5] != "" {
				r.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
			}
			f.Results = append(f.Results, r)
		}
	}
	return f
}

func readFile(path string) (File, error) {
	var f File
	blob, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	err = json.Unmarshal(blob, &f)
	return f, err
}

// merge folds extra into base: same-named results are replaced, new ones
// appended; base order is preserved so diffs against the committed baseline
// stay minimal.
func merge(base, extra File) File {
	pos := map[string]int{}
	for i, r := range base.Results {
		pos[r.Name] = i
	}
	for _, r := range extra.Results {
		if i, ok := pos[r.Name]; ok {
			base.Results[i] = r
		} else {
			pos[r.Name] = len(base.Results)
			base.Results = append(base.Results, r)
		}
	}
	if base.Goos == "" {
		base.Goos, base.Goarch, base.Pkg, base.CPU = extra.Goos, extra.Goarch, extra.Pkg, extra.CPU
	}
	return base
}

// allocGate checks every batch arm in one file — a result whose name has a
// path segment starting "vectorized" (B1's vectorized_exec included) or
// "parallel-vectorized" (B14's fourth arm) — against a ceiling on allocs/op.
// The claim behind the batch pipeline is near-zero steady-state allocation
// (pooled buffers even across worker goroutines), so a creeping alloc count
// is a regression even when wall time still looks fine.
func allocGate(f File, ceiling int64, match *regexp.Regexp, w *os.File) (failed, compared int) {
	results := append([]Result(nil), f.Results...)
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
	for _, r := range results {
		batch := strings.Contains(r.Name, "/vectorized") || strings.Contains(r.Name, "/parallel-vectorized")
		if !batch || r.AllocsPerOp <= 0 || !match.MatchString(r.Name) {
			continue
		}
		compared++
		if r.AllocsPerOp > ceiling {
			failed++
			fmt.Fprintf(w, "ALLOC REGRESSION %-55s %8d allocs/op > %d\n", r.Name, r.AllocsPerOp, ceiling)
		}
	}
	return failed, compared
}

// compare reports the benchmarks present in both files whose fresh wall
// time regressed beyond the threshold.
func compare(base, fresh File, thresholdPct float64, w *os.File) (regressed int, compared int) {
	baseline := map[string]Result{}
	for _, r := range base.Results {
		baseline[r.Name] = r
	}
	names := make([]string, 0, len(fresh.Results))
	for _, r := range fresh.Results {
		names = append(names, r.Name)
	}
	sort.Strings(names)
	freshBy := map[string]Result{}
	for _, r := range fresh.Results {
		freshBy[r.Name] = r
	}
	for _, name := range names {
		nr := freshBy[name]
		br, ok := baseline[name]
		if !ok || br.NsPerOp <= 0 || nr.NsPerOp <= 0 {
			continue
		}
		compared++
		pct := (nr.NsPerOp - br.NsPerOp) / br.NsPerOp * 100
		if pct > thresholdPct {
			regressed++
			fmt.Fprintf(w, "REGRESSION %-60s %12.0f → %12.0f ns/op (%+.1f%% > %.0f%%)\n",
				name, br.NsPerOp, nr.NsPerOp, pct, thresholdPct)
		}
	}
	return regressed, compared
}

// input returns the results the output starts from: the benchmark text on
// stdin, or in merge mode what the output file already holds (nothing if it
// does not exist yet). A merge never reads stdin: under a harness stdin may
// be a pipe nobody writes to or closes, or an empty one that would replace
// the file's results with none.
func input(stdin io.Reader, mergePath, out string) File {
	if mergePath == "" {
		return parse(bufio.NewScanner(stdin))
	}
	if existing, err := readFile(out); out != "" && err == nil {
		return existing
	}
	return File{}
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	mergePath := flag.String("merge", "", "benchjson file whose results are folded into the output")
	comparePair := flag.Bool("compare", false, "compare two files: baseline fresh; exit 1 on regression")
	threshold := flag.Float64("threshold", 25, "regression threshold in percent for -compare")
	gateMax := flag.Int64("alloc-gate", 0, "check the (parallel-)vectorized arms in one file: each must be ≤ this many allocs/op; exit 1 otherwise")
	gateMatch := flag.String("match", "", "regexp restricting which arms -alloc-gate checks (e.g. S400 for the full-scale arms); empty = all")
	flag.Parse()

	if *gateMax > 0 {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "benchjson: -alloc-gate needs exactly one file")
			os.Exit(2)
		}
		match, err := regexp.Compile(*gateMatch)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: -match: %v\n", err)
			os.Exit(2)
		}
		f, err := readFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		failed, compared := allocGate(f, *gateMax, match, os.Stdout)
		fmt.Printf("benchjson: checked %d vectorized arms in %s, %d above %d allocs/op\n",
			compared, flag.Arg(0), failed, *gateMax)
		if compared == 0 {
			fmt.Fprintln(os.Stderr, "benchjson: no vectorized arms found — gate would pass vacuously")
			os.Exit(1)
		}
		if failed > 0 {
			os.Exit(1)
		}
		return
	}

	if *comparePair {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: baseline fresh")
			os.Exit(2)
		}
		base, err := readFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		fresh, err := readFile(flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		regressed, compared := compare(base, fresh, *threshold, os.Stdout)
		fmt.Printf("benchjson: compared %d benchmarks against %s, %d regressed beyond %.0f%%\n",
			compared, flag.Arg(0), regressed, *threshold)
		if regressed > 0 {
			os.Exit(1)
		}
		return
	}

	f := input(os.Stdin, *mergePath, *out)
	if *mergePath != "" {
		extra, err := readFile(*mergePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		f = merge(f, extra)
	}
	blob, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	blob = append(blob, '\n')
	if *out == "" {
		os.Stdout.Write(blob)
		return
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d results to %s\n", len(f.Results), *out)
}
