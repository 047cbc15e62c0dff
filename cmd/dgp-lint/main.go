// dgp-lint runs the repository's domain analyzers (see internal/analysis)
// over Go packages as a standalone multichecker (also `make lint`):
//
//	go run ./cmd/dgp-lint ./...
//
// exits 0 when the tree is clean, 1 when any analyzer reports a finding,
// 2 on operational errors. `-list` prints the suite.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/suite"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("dgp-lint", flag.ContinueOnError)
	listFlag := fs.Bool("list", false, "list the analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listFlag {
		for _, a := range suite.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dgp-lint:", err)
		return 2
	}
	diags, err := analysis.Run(cwd, suite.All(), patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dgp-lint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "dgp-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
