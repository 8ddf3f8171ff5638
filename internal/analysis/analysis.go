package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check. The shape deliberately mirrors
// golang.org/x/tools/go/analysis.Analyzer so the suite can migrate to
// the real framework mechanically once the module proxy is reachable;
// only the fields this repo's analyzers need are present.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and directives.
	Name string
	// Doc is the one-paragraph description of the check.
	Doc string
	// Run performs the analysis over one package.
	Run func(*Pass) error
	// FactTypes lists the fact types this analyzer exports and
	// imports, one zero value per concrete type. The in-memory checker
	// does not read it; x/tools' drivers do, to serialize facts, so
	// the suite declares them for the migration doc.go describes.
	FactTypes []Fact
}

// Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic. The checker installs it.
	Report func(Diagnostic)

	// Graph is the module-wide call graph: every package of the load
	// closure is indexed before any analyzer runs.
	Graph *CallGraph

	// The fact accessors, installed by the checker (func-valued
	// fields, the x/tools shape). Exports may target only the pass's
	// own package; imports may query any package analyzed earlier in
	// dependency order.
	ExportObjectFact  func(obj types.Object, fact Fact)
	ImportObjectFact  func(obj types.Object, fact Fact) bool
	ExportPackageFact func(fact Fact)
	ImportPackageFact func(pkg *types.Package, fact Fact) bool
	AllObjectFacts    func() []ObjectFact
	AllPackageFacts   func() []PackageFact
}

// Diagnostic is one finding, positioned in Fset.
type Diagnostic struct {
	Pos token.Pos
	// Category is the reporting analyzer's name.
	Category string
	Message  string
}

// Reportf reports a formatted diagnostic at pos under the pass's
// analyzer name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Category: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// FileAt returns the pass file containing pos, or nil.
func (p *Pass) FileAt(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// IsTestFile reports whether pos lies in a _test.go file. The checker
// analyzes test packages too, and the serving-path analyzers
// (snapshotonce, tokenizeonce) skip test files: tests tokenize
// messages to build expectations and read snapshot pointers
// repeatedly to assert generation changes, which is exactly their
// job.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// ExemptedAt reports whether a //sbvet:name directive covers pos: on
// the same line or the line immediately above. Analyzers call this
// before reporting so every escape hatch shares one placement rule.
func (p *Pass) ExemptedAt(pos token.Pos, name string) bool {
	f := p.FileAt(pos)
	if f == nil {
		return false
	}
	line := p.Fset.Position(pos).Line
	for _, d := range Directives(p.Fset, f) {
		if d.Name == name && (d.Line == line || d.Line == line-1) {
			return true
		}
	}
	return false
}
