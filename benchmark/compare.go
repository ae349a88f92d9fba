package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// readSet loads the timed run documents of a directory, grouped by
// workload. A set is usually ten runs of each workload on different seeds.
func readSet(dir string) (map[string][]*document, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.trace0.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no *.trace0.json run documents", dir)
	}
	set := map[string][]*document{}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		d := &document{}
		if err := json.Unmarshal(raw, d); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		set[d.Workload] = append(set[d.Workload], d)
	}
	return set, nil
}

// across returns a metric's median and inter-quartile spread (as a share of
// the median) over the runs of a set; one run alone contributes the
// quartiles of its own repetitions.
func across(docs []*document, name string) (med, spread float64, ok bool) {
	var v []float64
	for _, d := range docs {
		if s, found := d.metric(name); found {
			v = append(v, s.Median)
		}
	}
	if len(v) == 0 {
		return 0, 0, false
	}
	q1, med, q3 := quartiles(v)
	if len(v) == 1 {
		s, _ := docs[0].metric(name)
		q1, q3 = s.Q1, s.Q3
	}
	if med == 0 {
		return 0, 0, false
	}
	return med, (q3 - q1) / med, true
}

// verdict applies a metric's bound to two sets of runs, a the baseline.
func verdict(m metric, medA, medB, spreadA, spreadB float64) string {
	worse := (medB - medA) / medA
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		return "worse"
	case m.Name != "setup_s" && max(spreadA, spreadB) > m.Bound:
		// Set-up is timed a few times per run; only its median is held to the bound.
		return "unresolved"
	default:
		return "within bound"
	}
}

// compareSets prints one row per (metric, workload) and returns 1 unless
// every row is within its bound.
func compareSets(dirA, dirB string) int {
	a, errA := readSet(dirA)
	b, errB := readSet(dirB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	return printComparison(a, b)
}

func printComparison(a, b map[string][]*document) int {
	code := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta median\ta spread\tb median\tb spread\tchange\tbound\tverdict")
	for _, w := range workloads {
		for _, m := range endToEnd {
			medA, spreadA, okA := across(a[w.name], m.Name)
			medB, spreadB, okB := across(b[w.name], m.Name)
			if !okA || !okB {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\t\tmissing\n", w.name, m.Name)
				code = 1
				continue
			}
			v := verdict(m, medA, medB, spreadA, spreadB)
			if v != "within bound" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.1f%%\t%.4g\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\n",
				w.name, m.Name, medA, 100*spreadA, medB, 100*spreadB, 100*(medB-medA)/medA, 100*m.Bound, v)
		}
	}
	tw.Flush()
	for _, set := range []map[string][]*document{a, b} {
		for _, docs := range set {
			for _, d := range docs {
				if !d.Correct {
					fmt.Printf("%s seed %d: %d of %d ops failed\n", d.Workload, d.Seed, d.Failed, d.Attempted)
					code = 1
				}
			}
		}
	}
	return code
}
