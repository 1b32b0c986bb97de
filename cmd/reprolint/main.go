// Reprolint is the multichecker for the repro static-analysis suite
// (internal/analysis): nodeterm, rngxonly, hotpath, resetcomplete, contblock
// and ringdiscipline.
//
//	reprolint [-json] [packages]
//
// It loads the named package patterns (default ./...) through
// `go list -deps -export`, analyzes every package including test files,
// prints findings and exits 2 if there were any. With -json the findings go
// to stdout as one JSON array of {file, line, column, analyzer, message,
// package} objects instead of text on stderr. `go test ./internal/analysis`
// runs the same suite in-process (TestRepoIsClean).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	jsonFlag := flag.Bool("json", false, "print findings as a JSON array on stdout")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: reprolint [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	run(flag.Args(), *jsonFlag)
}

func run(patterns []string, asJSON bool) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fatal(err)
	}
	var findings []analysis.Finding
	for _, pkg := range pkgs {
		diags, err := analysis.RunSuite(pkg, analysis.Suite())
		if err != nil {
			fatal(err)
		}
		findings = append(findings, analysis.FindingsFrom(pkg, diags)...)
	}
	if asJSON {
		if err := analysis.WriteFindingsJSON(os.Stdout, findings); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Column, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "reprolint:", err)
	os.Exit(1)
}
