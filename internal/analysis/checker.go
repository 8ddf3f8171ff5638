package analysis

import (
	"errors"
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one positioned diagnostic, resolved for printing.
type Finding struct {
	Position token.Position
	Category string
	Message  string
}

// String formats the finding the way go vet does.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Position, f.Message, f.Category)
}

// SortFindings orders findings deterministically — file, line, column,
// analyzer name, message — so CI diffs and self-check failure dumps
// are stable across runs regardless of analyzer scheduling.
func SortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Category != b.Category {
			return a.Category < b.Category
		}
		return a.Message < b.Message
	})
}

// Checker runs a fixed analyzer list over a sequence of packages with
// shared interprocedural state: one call graph accumulating every
// package added, and one fact store carrying analyzer facts from
// dependency passes to dependent passes.
type Checker struct {
	analyzers []*Analyzer
	// Graph is the shared call graph. Add every package of the load
	// closure (AddPackage) before the first RunPackage so passes see
	// the module-wide view.
	Graph *CallGraph
	// Facts is the shared fact store.
	Facts *FactStore
}

// NewChecker returns a checker for the analyzer list.
func NewChecker(analyzers []*Analyzer) *Checker {
	return &Checker{
		analyzers: analyzers,
		Graph:     NewCallGraph(),
		Facts:     NewFactStore(),
	}
}

// AddPackage indexes pkg into the shared call graph without running
// any analyzer.
func (c *Checker) AddPackage(pkg *Package) { c.Graph.AddPackage(pkg) }

// Check runs every analyzer over every package matching patterns
// under the loader's root and returns the findings sorted by position
// and analyzer name. Packages are analyzed in dependency order —
// imports before importers — with unmatched internal dependencies
// analyzed facts-only (their findings are discarded), so a pattern
// like ./internal/... still sees facts from the module root's other
// packages it imports. Each matched package's test packages (see
// Loader.Tests) are analyzed after that, over the same call graph and
// fact store; of their analyzer findings only those in _test.go files
// are kept, since the rest were reported once already. A package that
// fails to load or type-check yields one finding per error under the
// "sbvet" category — the suite never reports a broken build as clean —
// at the error's position when it has one, and a test variant's type
// errors are reported unless the same error was already.
func Check(l *Loader, analyzers []*Analyzer, patterns ...string) ([]Finding, error) {
	paths, err := l.Packages(patterns...)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("analysis: no packages match %v", patterns)
	}
	var findings []Finding
	reported := make(map[Finding]bool)
	typeErrors := func(pkg *Package) {
		for _, err := range pkg.TypeErrors {
			if f := typeError(pkg, err); !reported[f] {
				reported[f] = true
				findings = append(findings, f)
			}
		}
	}
	matched := make(map[string]bool)
	var loaded []*Package
	for _, path := range paths {
		pkg, err := l.LoadImport(path)
		if err != nil {
			findings = append(findings, Finding{Category: "sbvet", Message: err.Error()})
			continue
		}
		matched[path] = true
		loaded = append(loaded, pkg)
	}

	c := NewChecker(analyzers)
	// Index the whole load closure — matched packages and every
	// internal dependency their type-checking pulled in — before any
	// analyzer runs, so every pass sees the module-wide call graph.
	for _, pkg := range l.LoadedPackages() {
		c.AddPackage(pkg)
	}

	// Analyze dependencies first so facts exist when importers query
	// them.
	analyzed := make(map[string]bool)
	var run func(pkg *Package)
	run = func(pkg *Package) {
		if analyzed[pkg.PkgPath] {
			return
		}
		analyzed[pkg.PkgPath] = true
		if pkg.Types != nil {
			for _, imp := range pkg.Types.Imports() {
				if dep := l.Loaded(imp.Path()); dep != nil {
					run(dep)
				}
			}
		}
		fs := c.RunPackage(pkg)
		if matched[pkg.PkgPath] {
			typeErrors(pkg)
			findings = append(findings, fs...)
		}
	}
	for _, pkg := range loaded {
		run(pkg)
	}

	var tests []*Package
	for _, pkg := range loaded {
		pkgs, err := l.Tests(pkg.PkgPath)
		if err != nil {
			findings = append(findings, Finding{Category: "sbvet", Message: err.Error()})
		}
		tests = append(tests, pkgs...)
	}
	for _, pkg := range tests {
		c.AddPackage(pkg)
	}
	for _, pkg := range tests {
		typeErrors(pkg)
		for _, f := range c.RunPackage(pkg) {
			if f.Position.Filename == "" || strings.HasSuffix(f.Position.Filename, "_test.go") {
				findings = append(findings, f)
			}
		}
	}
	SortFindings(findings)
	return findings, nil
}

// typeError is the finding for one of pkg's type errors: at its
// position when go/types reports one, and otherwise, as for a failed
// import, positionless and naming the package.
func typeError(pkg *Package, err error) Finding {
	var te types.Error
	if errors.As(err, &te) {
		return Finding{Position: te.Fset.Position(te.Pos), Category: "sbvet", Message: "type error: " + te.Msg}
	}
	return Finding{Category: "sbvet", Message: fmt.Sprintf("%s: type error: %v", pkg.PkgPath, err)}
}

// RunPackage runs the checker's analyzers over one package, sharing
// the accumulated call graph and fact store, and returns that
// package's findings sorted. Its type errors are Check's to report.
func (c *Checker) RunPackage(pkg *Package) []Finding {
	var findings []Finding
	report := func(d Diagnostic) {
		findings = append(findings, Finding{
			Position: pkg.Fset.Position(d.Pos),
			Category: d.Category,
			Message:  d.Message,
		})
	}
	// Unknown or malformed directives are findings themselves: a typo
	// like //sbvet:drian must not silently waive nothing.
	for _, f := range pkg.Files {
		for _, d := range Directives(pkg.Fset, f) {
			if _, ok := KnownDirectives[d.Name]; !ok {
				report(Diagnostic{
					Pos:      d.Pos,
					Category: "sbvet",
					Message:  fmt.Sprintf("unknown directive //sbvet:%s (known: %s)", d.Name, strings.Join(directiveNames(), ", ")),
				})
			}
		}
	}
	for _, a := range c.analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Report:    report,
			Graph:     c.Graph,
		}
		bindFacts(pass, c.Facts)
		if err := a.Run(pass); err != nil {
			findings = append(findings, Finding{Category: a.Name, Message: fmt.Sprintf("%s: analyzer error: %v", pkg.PkgPath, err)})
		}
	}
	SortFindings(findings)
	return findings
}

// directiveNames returns the known directive names, sorted.
func directiveNames() []string {
	names := make([]string, 0, len(KnownDirectives))
	for name := range KnownDirectives {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
