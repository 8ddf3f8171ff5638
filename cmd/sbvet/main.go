// Command sbvet runs the repo's invariant analyzers (the suite in
// internal/analysis/suite) over the module surrounding the working
// directory:
//
//	go run ./cmd/sbvet ./...
//
// It loads the matched packages and their _test.go files from source
// and prints findings in go vet's file:line:col format, exiting 2 if
// there are any.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis/suite"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sbvet [packages]\n")
	}
	flag.Parse()
	os.Exit(run(flag.Args()))
}

// run checks the packages matching the patterns (default "./...").
func run(patterns []string) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbvet: %v\n", err)
		return 1
	}
	root, err := findModuleRoot(cwd)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbvet: %v\n", err)
		return 1
	}
	findings, err := suite.CheckModule(root, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sbvet: %v\n", err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

// findModuleRoot walks up from dir to the directory holding go.mod.
func findModuleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found in or above the working directory")
		}
		dir = parent
	}
}
