package analysis_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/ctxdrain"
)

// TestCheckAnalyzesTestFiles runs Check over testdata/testpkgs, whose
// package a has an in-package test, an export_test.go helper and an
// external test importing b, which itself imports a. The drain loops
// in both test files are found, the one in a.go is reported once
// although a's test variant holds it too, and b recompiled over that
// variant makes the external test type-check: a type error would be
// an "sbvet" finding.
func TestCheckAnalyzesTestFiles(t *testing.T) {
	l, err := analysis.NewModuleLoader(filepath.Join("testdata", "testpkgs"))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.Check(l, []*analysis.Analyzer{ctxdrain.Analyzer}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s:%d %s", filepath.Base(f.Position.Filename), f.Position.Line, f.Category))
	}
	want := []string{"a.go:15 ctxdrain", "a_test.go:6 ctxdrain", "a_x_test.go:12 ctxdrain"}
	if !slices.Equal(got, want) {
		for _, f := range findings {
			t.Log(f)
		}
		t.Errorf("findings %q, want %q", got, want)
	}
}

// TestCheckPositionsTypeErrors runs Check over testdata/typeerrs,
// whose package c has a type error in c.go, which its test variant
// type-checks again, and one in c_test.go. Each is reported once, at
// its file, line and column, and sorts among the positioned findings.
func TestCheckPositionsTypeErrors(t *testing.T) {
	l, err := analysis.NewModuleLoader(filepath.Join("testdata", "typeerrs"))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.Check(l, []*analysis.Analyzer{ctxdrain.Analyzer}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s:%d:%d %s", filepath.Base(f.Position.Filename), f.Position.Line, f.Position.Column, f.Category))
	}
	want := []string{"c.go:10:2 ctxdrain", "c.go:14:18 sbvet", "c_test.go:3:18 sbvet"}
	if !slices.Equal(got, want) {
		for _, f := range findings {
			t.Log(f)
		}
		t.Errorf("findings %q, want %q", got, want)
	}
}
