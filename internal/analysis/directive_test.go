package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// parseOne parses src as a single file and returns it with its fset.
func parseOne(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, f
}

// TestDirectivesCRLF: a file saved with Windows line endings must not
// leak the \r into the directive's reason.
func TestDirectivesCRLF(t *testing.T) {
	src := strings.ReplaceAll(`package p

func f() {
	_ = 0 //sbvet:drain cancelled on return
}
`, "\n", "\r\n")
	fset, f := parseOne(t, src)
	ds := Directives(fset, f)
	if len(ds) != 1 {
		t.Fatalf("got %d directives, want 1", len(ds))
	}
	if ds[0].Name != "drain" {
		t.Errorf("Name = %q, want drain", ds[0].Name)
	}
	if ds[0].Reason != "cancelled on return" {
		t.Errorf("Reason = %q; a CRLF ending leaked into the reason", ds[0].Reason)
	}
}

// TestDirectivesStacked: one comment can carry several directives,
// each reason running to the next marker, all on the comment's line.
func TestDirectivesStacked(t *testing.T) {
	src := `package p

func f() {
	_ = 0 //sbvet:drain done //sbvet:nostat derived elsewhere
}
`
	fset, f := parseOne(t, src)
	ds := Directives(fset, f)
	if len(ds) != 2 {
		t.Fatalf("got %d directives, want 2", len(ds))
	}
	if ds[0].Name != "drain" || ds[0].Reason != "done" {
		t.Errorf("first = %q %q, want drain/done", ds[0].Name, ds[0].Reason)
	}
	if ds[1].Name != "nostat" || ds[1].Reason != "derived elsewhere" {
		t.Errorf("second = %q %q, want nostat/\"derived elsewhere\"", ds[1].Name, ds[1].Reason)
	}
	if ds[0].Line != ds[1].Line {
		t.Errorf("stacked directives on different lines: %d vs %d", ds[0].Line, ds[1].Line)
	}
}

// TestDirectivesMalformed: a bare //sbvet: surfaces with an empty name
// so the checker can diagnose it rather than silently ignoring it.
func TestDirectivesMalformed(t *testing.T) {
	src := `package p

func f() {
	_ = 0 //sbvet:
}
`
	fset, f := parseOne(t, src)
	ds := Directives(fset, f)
	if len(ds) != 1 || ds[0].Name != "" {
		t.Fatalf("got %+v, want one directive with empty name", ds)
	}
}

// exemptPass builds a Pass sufficient for ExemptedAt over one parsed
// file.
func exemptPass(fset *token.FileSet, f *ast.File) *Pass {
	return &Pass{Fset: fset, Files: []*ast.File{f}}
}

// stmtPos finds the position of the statement assigning to sink.
func stmtPos(t *testing.T, f *ast.File) token.Pos {
	t.Helper()
	var pos token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			pos = as.Pos()
		}
		return true
	})
	if !pos.IsValid() {
		t.Fatal("no assignment found in fixture source")
	}
	return pos
}

// TestExemptedAtAdjacency: a directive waives the site on its own line
// or the line directly below — but a blank line between directive and
// site breaks the association, so a stale comment cannot waive code
// that drifted away from it.
func TestExemptedAtAdjacency(t *testing.T) {
	adjacent := `package p

func f() (x int) {
	//sbvet:drain reason
	x = 1
	return
}
`
	fset, f := parseOne(t, adjacent)
	if !exemptPass(fset, f).ExemptedAt(stmtPos(t, f), "drain") {
		t.Error("directive directly above the site did not waive it")
	}

	separated := `package p

func f() (x int) {
	//sbvet:drain reason

	x = 1
	return
}
`
	fset, f = parseOne(t, separated)
	if exemptPass(fset, f).ExemptedAt(stmtPos(t, f), "drain") {
		t.Error("blank-line-separated directive waived the site; adjacency is required")
	}

	wrongName := `package p

func f() (x int) {
	//sbvet:drain reason
	x = 1
	return
}
`
	fset, f = parseOne(t, wrongName)
	if exemptPass(fset, f).ExemptedAt(stmtPos(t, f), "nostat") {
		t.Error("a drain directive waived a nostat site; names must match")
	}
}

// TestUnknownDirectiveDiagnosed: the checker reports any //sbvet:
// comment whose name is not in KnownDirectives, so a typo cannot
// silently waive nothing.
func TestUnknownDirectiveDiagnosed(t *testing.T) {
	src := `package p

func f() {
	_ = 0 //sbvet:ungarded typo for unguarded
}
`
	fset, f := parseOne(t, src)
	conf := types.Config{Importer: importer.Default(), Error: func(error) {}}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tpkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	pkg := &Package{
		PkgPath: "p", Fset: fset, Files: []*ast.File{f},
		Types: tpkg, TypesInfo: info,
	}
	findings := NewChecker(nil).RunPackage(pkg)
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	msg := findings[0].Message
	if !strings.Contains(msg, "unknown directive //sbvet:ungarded") {
		t.Errorf("message %q does not name the unknown directive", msg)
	}
	if !strings.Contains(msg, "unguarded") || !strings.Contains(msg, "drain") {
		t.Errorf("message %q does not list the known directive names", msg)
	}
}
