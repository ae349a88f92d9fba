package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"regexp"
	"testing"
	"time"
)

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// TestDeclarations keeps BENCHMARK.json and the Go declarations equal and
// inside the driver's limits.
func TestDeclarations(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	same := func(kind string, got, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
			if !name.MatchString(want[i].Name) || !unit.MatchString(want[i].Unit) {
				t.Errorf("%s: name or unit of %+v outside the driver's alphabet", kind, want[i])
			}
		}
	}
	same("end_to_end", d.EndToEnd, endToEnd)
	same("per_layer", d.PerLayer, perLayer)
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program {%s %s}", i, d.Workloads[i], w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %s: name or why outside the driver's limits", w.name)
		}
		if w.clients > 2 {
			t.Errorf("workload %s: %d clients on a 2-core host", w.name, w.clients)
		}
	}
	if len(d.Paths) != 1 || d.Paths[0] != "benchmark" || d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", d.Paths, d.RunSeconds)
	}
}

func quickRun(w *workload) *run { return newRun(w, 94, 0, true) }

// TestTimedRun: every end-to-end metric of every workload comes out with
// its unit, is not zero, and no op fails.
func TestTimedRun(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		doc := timedRun(context.Background(), quickRun(w))
		if !doc.Correct || doc.Failed != 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.name, doc.Failed, doc.Attempted, doc.Errors)
		}
		checkMetrics(t, doc, endToEnd, true)
	}
}

func checkMetrics(t *testing.T, doc *document, want []metric, nonZero bool) {
	t.Helper()
	if len(doc.Metrics) != len(want) {
		t.Fatalf("%s: %d metrics, want %d", doc.Workload, len(doc.Metrics), len(want))
	}
	for i, m := range want {
		s := doc.Metrics[i]
		if s.Name != m.Name || s.Unit != m.Unit {
			t.Errorf("%s: metric %d is %s [%s], want %s [%s]", doc.Workload, i, s.Name, s.Unit, m.Name, m.Unit)
		}
		if s.N == 0 || math.IsNaN(s.Median) || math.IsInf(s.Median, 0) || (nonZero && s.Median <= 0) {
			t.Errorf("%s: %s = %v from %d samples", doc.Workload, s.Name, s.Median, s.N)
		}
	}
}

// TestTracedRun: every per-layer metric of every workload comes out, and
// the layer with the largest share is the one the workload was built to
// stress.
func TestTracedRun(t *testing.T) {
	docs := map[string]*document{}
	for i := range workloads {
		w := &workloads[i]
		doc := tracedRun(context.Background(), quickRun(w))
		docs[w.name] = doc
		if !doc.Correct || doc.Failed != 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.name, doc.Failed, doc.Attempted, doc.Errors)
		}
		checkMetrics(t, doc, perLayer, false)
	}
	if t.Failed() {
		return
	}
	shareOf := func(workload string, layers ...string) (sum float64) {
		for _, s := range docs[workload].Shares {
			for _, l := range layers {
				if s.Layer == l {
					sum += s.Share
				}
			}
		}
		return sum
	}
	for _, w := range []string{"analytic.default", "analytic.vectorized"} {
		if top := docs[w].Shares[0].Layer; top != "exec" {
			t.Errorf("%s: largest layer is %s, want exec", w, top)
		}
		if hit, _ := docs[w].metric("server.cache_hit_ratio"); hit.Median != 1 {
			t.Errorf("%s: plan-cache hit ratio %v, want 1", w, hit.Median)
		}
	}
	if prep, exec := shareOf("plan.miss", "oosql", "translate", "rewrite", "plan"), shareOf("plan.miss", "exec"); prep <= exec {
		t.Errorf("plan.miss: prepare stages %.2f of the path, exec %.2f", prep, exec)
	}
	if hit, _ := docs["plan.miss"].metric("server.cache_hit_ratio"); hit.Median != 0 {
		t.Errorf("plan.miss: plan-cache hit ratio %v, want 0", hit.Median)
	}
	// serve.http runs serve.point's engine work; what it adds is the boundary.
	us := func(workload, name string) float64 {
		s, _ := docs[workload].metric(name)
		return s.Median
	}
	boundary := us("serve.http", "adlserve.http_us") + us("serve.http", "value.serialize_us")
	if delta := math.Abs(us("serve.http", "exec.collect_us") - us("serve.point", "exec.collect_us")); boundary <= delta {
		t.Errorf("serve.http: boundary %.1f us, exec differs from serve.point by %.1f us", boundary, delta)
	}
}

// TestChildStartFailure: a child that cannot start, or exits before it is
// healthy, is an error at once, not a hang.
func TestChildStartFailure(t *testing.T) {
	if _, err := startChild(context.Background(), "out/no-such-binary"); err == nil {
		t.Error("starting a missing binary succeeded")
	}
	exits, err := exec.LookPath("false")
	if err != nil {
		t.Skip("no false(1) on this host")
	}
	start := time.Now()
	if _, err := startChild(context.Background(), exits); err == nil {
		t.Error("a child that exits at once was reported healthy")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("noticing the dead child took %v", took)
	}
}
