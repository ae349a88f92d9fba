// Command benchmark measures the OOSQL engine from outside: six closed-loop
// workloads, four end-to-end metrics each, and a separate traced run that
// attributes time to the engine's modules. See README.md.
//
//	bash benchmark/run.sh --workload serve.point --seed 94 --seconds 15 --trace 0
//	bash benchmark/run.sh --compare out/a out/b
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"text/tabwriter"
	"time"

	"repro/internal/bench"
)

const (
	repetitions  = 5
	warmUp       = time.Second
	setUpSamples = 15
)

// run is one invocation's view of one workload.
type run struct {
	w        *workload
	seed     int64
	quick    bool
	store    bench.Config   // w.store, shrunk by -quick
	pinned   map[string]int // row count of every read query, from the gate
	adlserve string         // path of the built child binary
	reps     int
	window   time.Duration
}

// document is everything one run measured; it is written under out/runs/
// and is what -compare reads.
type document struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Trace       bool     `json:"trace"`
	Quick       bool     `json:"quick"`
	Nproc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	GoVersion   string   `json:"go_version"`
	Commit      string   `json:"commit"`
	Repetitions int      `json:"repetitions"`
	WindowS     float64  `json:"window_s"`
	Correct     bool     `json:"correct"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Errors      []string `json:"errors,omitempty"`
	Metrics     []sample `json:"metrics"`
	Diagnostics []sample `json:"diagnostics,omitempty"` // printed, never gated
	Shares      []share  `json:"layer_shares,omitempty"`
}

func (d *document) metric(name string) (sample, bool) {
	for _, s := range d.Metrics {
		if s.Name == name {
			return s, true
		}
	}
	return sample{}, false
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name    = flag.String("workload", "", "workload to run (default: all six, one after the other)")
		seed    = flag.Int64("seed", 94, "seed of the op schedules and literals")
		seconds = flag.Float64("seconds", 15, "timed seconds per run, split over the repetitions")
		trace   = flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: timed run, end-to-end metrics")
		quick   = flag.Bool("quick", false, "smoke run: 1 repetition of 0.5 s, analytic stores at quarter scale")
		compare = flag.Bool("compare", false, "compare two directories of run documents: -compare A B")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare <dir-a> <dir-b>")
			return 2
		}
		return compareSets(flag.Arg(0), flag.Arg(1))
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	todo := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
			return 2
		}
		todo = []workload{*w}
	}
	code := 0
	for i := range todo {
		r := newRun(&todo[i], *seed, *seconds, *quick)
		var doc *document
		if *trace != 0 {
			doc = tracedRun(ctx, r)
		} else {
			doc = timedRun(ctx, r)
		}
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "interrupted")
			return 130
		}
		if err := report(doc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if !doc.Correct {
			code = 1
		}
	}
	return code
}

func newRun(w *workload, seed int64, seconds float64, quick bool) *run {
	if quick {
		return &run{w: w, seed: seed, quick: true, store: quickStore(w.store), reps: 1, window: time.Second / 2}
	}
	return &run{w: w, seed: seed, store: w.store, reps: repetitions,
		window: time.Duration(seconds / repetitions * float64(time.Second))}
}

func newDocument(r *run, trace bool) *document {
	return &document{
		Workload: r.w.name, Seed: r.seed, Trace: trace, Quick: r.quick,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: gitCommit(),
		Repetitions: r.reps, WindowS: r.window.Seconds(),
	}
}

func (d *document) finish(o *outcome) *document {
	d.Attempted, d.Failed, d.Errors = max(o.attempted, 1), o.failed, o.errs
	d.Correct = o.failed == 0 && o.attempted > 0
	return d
}

// prepare runs what both kinds of run do first: the correctness gate and,
// where a child is needed, its build.
func prepare(ctx context.Context, r *run, needChild bool, o *outcome) bool {
	pinned, err := gate(r.w, r.store, o)
	if err != nil {
		o.check(false, "gate: %v", err)
	}
	r.pinned = pinned
	if needChild && o.failed == 0 {
		bin, err := buildAdlserve(ctx)
		o.check(err == nil, "%v", err)
		r.adlserve = bin
	}
	return o.failed == 0
}

// timedRun measures the end-to-end metrics with tracing off: one discarded
// warm-up repetition, then r.reps repetitions, each on a fresh set-up.
func timedRun(ctx context.Context, r *run) *document {
	doc, o := newDocument(r, false), &outcome{}
	if !prepare(ctx, r, r.w.http, o) {
		return doc.finish(o)
	}
	var ops, p50, p95, p99, p999, setup []float64
	// timedSetUp collects the garbage of whatever ran before, so that every
	// set-up and every window starts from the same heap.
	timedSetUp := func() (*instance, bool) {
		runtime.GC()
		t0 := time.Now()
		in, err := r.w.setUp(ctx, r)
		took := time.Since(t0).Seconds()
		// Without a system under test every op of the repetition fails.
		o.check(err == nil, "set-up: %v", err)
		if err != nil {
			return nil, false
		}
		setup = append(setup, took)
		runtime.GC()
		return in, true
	}
	for rep := -1; rep < r.reps && ctx.Err() == nil; rep++ {
		in, ok := timedSetUp()
		if !ok {
			continue
		}
		d := r.window
		if rep < 0 {
			d, setup = min(warmUp, r.window), setup[:0]
		}
		win := timedWindow(in, r, rep, d)
		in.close()
		o.add(win.outcome)
		if rep < 0 || len(win.lat) == 0 {
			continue
		}
		ops = append(ops, win.opsPerS)
		p50 = append(p50, percentile(win.lat, 0.50))
		p95 = append(p95, percentile(win.lat, 0.95))
		p99 = append(p99, percentile(win.lat, 0.99))
		p999 = append(p999, percentile(win.lat, 0.999))
	}
	// A set-up of a few ms is timed too coarsely by five samples: the small
	// stores are set up again, without a window, for up to a second.
	for extra := time.Now(); !r.quick && len(setup) < setUpSamples && time.Since(extra) < time.Second && ctx.Err() == nil; {
		in, ok := timedSetUp()
		if !ok {
			break
		}
		in.close()
	}
	doc.Metrics = []sample{
		newSample("ops_per_s", "1/s", ops),
		newSample("p50_us", "us", p50),
		newSample("p95_us", "us", p95),
		newSample("setup_s", "s", setup),
	}
	// Too few samples lie beyond these in a window of the slow workloads.
	doc.Diagnostics = []sample{newSample("p99_us", "us", p99), newSample("p999_us", "us", p999)}
	return doc.finish(o)
}

// report prints the human table on stderr, writes the document, and prints
// the driver's result line last on stdout.
func report(d *document) error {
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "\n%s  seed %d  nproc %d  GOMAXPROCS %d  %s  commit %s\n",
		d.Workload, d.Seed, d.Nproc, d.GOMAXPROCS, d.GoVersion, d.Commit)
	fmt.Fprintln(tw, "metric\tunit\tmedian\tq1\tq3\tn")
	for _, s := range append(append([]sample(nil), d.Metrics...), d.Diagnostics...) {
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%d\n", s.Name, s.Unit, s.Median, s.Q1, s.Q3, s.N)
	}
	if len(d.Shares) > 0 {
		fmt.Fprintln(tw, "layer\tself us/op\tshare\t\t\t")
		for _, s := range d.Shares {
			fmt.Fprintf(tw, "%s\t%.2f\t%.1f%%\t\t\t\n", s.Layer, s.SelfUs, 100*s.Share)
		}
	}
	fmt.Fprintf(tw, "attempted %d  failed %d  correct %v\n", d.Attempted, d.Failed, d.Correct)
	for _, e := range d.Errors {
		fmt.Fprintf(tw, "  failure: %s\n", e)
	}
	tw.Flush()

	dir := filepath.Join("out", "runs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	traced := 0
	if d.Trace {
		traced = 1
	}
	raw, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	file := filepath.Join(dir, fmt.Sprintf("%s.seed%d.trace%d.json", d.Workload, d.Seed, traced))
	if err := os.WriteFile(file, append(raw, '\n'), 0o644); err != nil {
		return err
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{d.Correct, d.Attempted, d.Failed, map[string]value{}}
	for _, s := range d.Metrics {
		line.Metrics[s.Name] = value{s.Median, s.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(out))
	return err
}

// gitCommit is best effort: the driver's checkout is not a repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return string(bytes.TrimSpace(out))
}
