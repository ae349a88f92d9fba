// Command adllint runs the engine's custom static-analysis suite: four
// analyzers encoding the concurrency and teardown invariants the serving
// layer depends on (snapshotdiscipline, atomicmeter, closepropagate,
// batchimmutable).
//
// Usage:
//
//	adllint [-list] [packages...]
//
// Packages default to ./... resolved from the current directory. Exit code
// 0 means clean, 1 means findings, 2 means packages failed to load.
// Findings are suppressed with `//lint:adllint <analyzer> <reason>` on the
// offending line or the line above; the reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint/adllint"
)

func main() {
	listFlag := flag.Bool("list", false, "list the analyzers and their invariants, then exit")
	dirFlag := flag.String("dir", ".", "directory to resolve package patterns from")
	flag.Parse()

	suite := adllint.Suite()
	if *listFlag {
		for _, az := range suite {
			fmt.Printf("%s\n\t%s\n", az.Name, az.Doc)
		}
		return
	}
	os.Exit(adllint.Run(os.Stdout, *dirFlag, suite, flag.Args()...))
}
