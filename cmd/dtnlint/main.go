// Command dtnlint is the repository's invariant checker: a multichecker
// running the six dtnlint analyzers (determinism, callbackunderlock,
// transientleak, errdiscard, lockorder, unboundedgrowth) over the packages
// matching the given patterns.
//
// Usage:
//
//	dtnlint [-json] [packages]
//
// With no arguments it checks ./... relative to the current directory.
// Diagnostics print as file:line:col: analyzer: message, one per line, and
// any diagnostic makes the exit status 1 — `make lint` wires this into the
// tier-1 `make check` gate. With -json, output is instead one JSON document
// ({"diagnostics": [{file,line,col,analyzer,message}], "packages"}) for CI
// annotation tooling. Suppress a deliberate violation with a justified
// //lint:allow comment (see internal/analysis/lintcore).
package main

import (
	"flag"
	"fmt"
	"os"

	"replidtn/internal/analysis"
	"replidtn/internal/analysis/lintcore"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON document")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: dtnlint [-json] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Flags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-18s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	res, err := check(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtnlint:", err)
		os.Exit(2)
	}
	if *jsonOut {
		if err := lintcore.WriteJSON(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, "dtnlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range res.Diagnostics {
			fmt.Println(d)
		}
	}
	if len(res.Diagnostics) > 0 {
		fmt.Fprintf(os.Stderr, "dtnlint: %d diagnostic(s)\n", len(res.Diagnostics))
		os.Exit(1)
	}
}

// check runs every analyzer over the packages matching patterns.
func check(patterns []string) (*lintcore.Result, error) {
	return lintcore.Check(lintcore.Config{Patterns: patterns, Analyzers: analysis.All()})
}
