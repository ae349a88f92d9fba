// Command adlbench runs the experiment suite — B1–B7, B9, B11 and B13, the
// paper's claims as checked demonstrations — and prints one paper-style
// table per experiment.
// Every arm's result is verified against its case's reference arm, and every
// experiment checks its claim (plan choice, page reads, lost tuples, the
// orderings it names), so a table that prints at all has passed.
// Wall-clock comparison between commits is `bash benchmark/run.sh --compare`'s
// job, not this command's.
//
// Usage:
//
//	adlbench             # the full suite at default scales
//	adlbench -exp B3     # one experiment
//	adlbench -quick      # smoke scales, with every check (make bench-smoke)
//	adlbench -explain    # print every planned arm's Explain before it runs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "", "experiment to run (B1..B7, B9, B11, B13); empty = all")
	quick := flag.Bool("quick", false, "smoke scales")
	explain := flag.Bool("explain", false, "print every planned arm's Plan.Explain() before it runs")
	flag.Parse()

	var plans io.Writer
	if *explain {
		plans = os.Stdout
	}
	ran := false
	for _, e := range experiments.Suite {
		if *exp != "" && e.ID != *exp {
			continue
		}
		ran = true
		t, err := e.Run(*quick, plans)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adlbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(t)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "adlbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
