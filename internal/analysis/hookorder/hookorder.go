// Package hookorder proves the publish-hook ordering invariant: a
// PrePublish or PostPublish hook — or anything it transitively calls —
// must not re-enter the publish path.
//
// Guarded.publish (internal/engine/guarded.go) runs the PrePublish
// hooks, installs the replacement, then runs the PostPublish hooks. A
// hook that calls Swap, RetrainIncremental, Resume or publish re-enters
// that sequence from inside it: it publishes a snapshot out from under
// the very publish that invoked it and runs the hooks again from
// within themselves. Nothing at the type level prevents registering
// such a hook; the failure only appears at the first swap, in
// production.
//
// The analyzer works in two halves joined by facts:
//
//   - everywhere, it computes which functions (transitively) call the
//     publish surface — Swap / publish on the engine package's Engine
//     or Guarded, and RetrainIncremental / Resume on Guarded — and
//     exports a publishesFact for each, so the reachability crosses
//     package boundaries;
//   - at every hook registration — a PrePublish/PostPublish field in a
//     composite literal, or an assignment or append to such a field —
//     it inspects the registered values: a function literal is flagged
//     at the offending call inside it, and a named function or method
//     that reaches the publish surface is flagged at the registration
//     site.
//
// A //sbvet:reentrant directive (with a reason) waives one site:
// either the registration line or the offending call inside a literal
// hook. _test.go files are exempt.
package hookorder

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the hookorder check.
var Analyzer = &analysis.Analyzer{
	Name:      "hookorder",
	Doc:       "flag PrePublish/PostPublish hooks that re-enter the publish path (Swap/publish/RetrainIncremental/Resume)",
	Run:       run,
	FactTypes: []analysis.Fact{(*publishesFact)(nil)},
}

// publishesFact marks an exported function as (transitively) calling
// the publish surface; Callee names the publish method reached.
type publishesFact struct {
	Callee string
}

// AFact marks publishesFact as a fact type.
func (*publishesFact) AFact() {}

// hookFields are the struct fields whose elements are publish hooks.
var hookFields = map[string]bool{
	"PrePublish":  true,
	"PostPublish": true,
}

// publishNames is the publish surface: calling any of these from
// inside a hook re-enters the publish path.
var publishNames = map[string]bool{
	"Swap":               true,
	"publish":            true,
	"RetrainIncremental": true,
	"Resume":             true,
}

// publishRecvs are the engine types carrying the publish surface.
var publishRecvs = map[string]bool{
	"Engine":  true,
	"Guarded": true,
}

// enginePkgs are the package-path suffixes where the publish surface
// lives.
var enginePkgs = []string{"internal/engine"}

func run(pass *analysis.Pass) error {
	var funcs []*types.Func
	for _, f := range pass.Graph.Funcs() {
		if f.Pkg() == pass.Pkg {
			funcs = append(funcs, f)
		}
	}

	// Bottom-up: which functions in this package reach the publish
	// surface. The engine package's own methods are left out — publish
	// calling the hooks it runs is the mechanism, not a violation —
	// but everything above them taints normally.
	publishes := make(map[*types.Func]string)
	ownSurface := isEnginePkg(pass.Pkg.Path())
	if !ownSurface {
		for changed := true; changed; {
			changed = false
			for _, f := range funcs {
				if publishes[f] != "" {
					continue
				}
				for _, site := range pass.Graph.CallSites(f) {
					if callee := reaches(pass, publishes, site.Callee); callee != "" {
						publishes[f] = callee
						changed = true
						break
					}
				}
			}
		}
		for _, f := range funcs {
			if callee := publishes[f]; callee != "" {
				pass.ExportObjectFact(f, &publishesFact{Callee: callee})
			}
		}
	}

	// Top-down: inspect every hook registration in this package.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok && hookFields[key.Name] {
						checkHookExpr(pass, publishes, kv.Value)
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || !hookFields[sel.Sel.Name] || i >= len(n.Rhs) {
						continue
					}
					checkHookExpr(pass, publishes, n.Rhs[i])
				}
			}
			return true
		})
	}
	return nil
}

// checkHookExpr walks an expression registered as a hook (or a slice
// of hooks, or an append producing one) and flags any hook that
// re-enters the publish path.
func checkHookExpr(pass *analysis.Pass, publishes map[*types.Func]string, expr ast.Expr) {
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkHookBody(pass, publishes, n)
			return false
		case *ast.Ident, *ast.SelectorExpr:
			fn, ok := funcValue(pass, n.(ast.Expr))
			if !ok {
				return true
			}
			if pass.IsTestFile(n.Pos()) || pass.ExemptedAt(n.Pos(), "reentrant") {
				return false
			}
			if callee := reaches(pass, publishes, fn); callee != "" {
				pass.Reportf(n.Pos(), "publish hook re-enters the publish path: %s reaches %s; a hook runs inside publish and must not swap or retrain — restructure it or annotate //sbvet:reentrant with a reason", fn.FullName(), callee)
			}
			return false
		}
		return true
	})
}

// checkHookBody flags publish-path calls inside a literal hook, at the
// offending call site.
func checkHookBody(pass *analysis.Pass, publishes map[*types.Func]string, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := analysis.Callee(pass.TypesInfo, call)
		if callee == nil {
			return true
		}
		if pass.IsTestFile(call.Pos()) || pass.ExemptedAt(call.Pos(), "reentrant") {
			return true
		}
		if target := reaches(pass, publishes, callee); target != "" {
			pass.Reportf(call.Pos(), "publish hook re-enters the publish path: calls %s; a hook runs inside publish and must not swap or retrain — restructure it or annotate //sbvet:reentrant with a reason", target)
		}
		return true
	})
}

// reaches reports the publish-surface method a call to callee reaches
// ("" for none): the callee is a publish method itself, is locally
// known to publish, carries an imported publishesFact, or is an
// interface method one of whose implementations publishes.
func reaches(pass *analysis.Pass, publishes map[*types.Func]string, callee *types.Func) string {
	if callee == nil {
		return ""
	}
	if isPublishMethod(callee) {
		return callee.FullName()
	}
	if c := publishes[callee]; c != "" {
		return c
	}
	var pf publishesFact
	if pass.ImportObjectFact(callee, &pf) {
		return pf.Callee
	}
	if pass.Graph.IsInterfaceMethod(callee) {
		for _, impl := range pass.Graph.Implementations(callee) {
			if c := publishes[impl]; c != "" {
				return c
			}
			if pass.ImportObjectFact(impl, &pf) {
				return pf.Callee
			}
		}
	}
	return ""
}

// isPublishMethod reports whether fn is a method on the engine's
// publish surface.
func isPublishMethod(fn *types.Func) bool {
	if !publishNames[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return publishRecvs[named.Obj().Name()] && isEnginePkg(named.Obj().Pkg().Path())
}

// funcValue resolves an identifier or selector used as a value to the
// *types.Func it denotes, if any.
func funcValue(pass *analysis.Pass, expr ast.Expr) (*types.Func, bool) {
	var id *ast.Ident
	switch e := expr.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil, false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	return fn, ok
}

// isEnginePkg reports whether pkgPath is the engine package.
func isEnginePkg(pkgPath string) bool {
	for _, entry := range enginePkgs {
		if pkgPath == entry || strings.HasSuffix(pkgPath, "/"+entry) {
			return true
		}
	}
	return false
}
