// Package ctxdrain enforces the drain contract of context-aware
// channel consumers: inside a function that receives a
// context.Context, a for-range over a channel is a cancellation bug
// waiting to happen — the loop blocks in the receive and never
// observes ctx.Done(), so a cancelled caller is ignored until the
// channel happens to close (the bug class of the engine's retired
// bulk-training stream, which -race reruns only caught by luck).
//
// The analyzer flags such loops, including loops in goroutine
// closures nested inside a context-aware function (where the original
// bug lived), unless the loop body itself selects on ctx.Done()
// between receives, or the loop carries a //sbvet:drain directive
// declaring it an intentional drain-to-close that must ignore
// cancellation.
package ctxdrain

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the ctxdrain check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxdrain",
	Doc:  "flag for-range over a channel in context-aware functions, where cancellation would be silently ignored",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var ft *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ft, body = fn.Type, fn.Body
			case *ast.FuncLit:
				ft, body = fn.Type, fn.Body
			default:
				return true
			}
			if body == nil || !hasContextParam(pass, ft) {
				return true
			}
			checkBody(pass, body)
			// The walk continues into nested functions; checkBody
			// itself stops at closures that declare their own
			// context parameter (they are re-checked as units).
			return true
		})
	}
	return nil
}

// hasContextParam reports whether the function type declares a
// context.Context parameter.
func hasContextParam(pass *analysis.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, fld := range ft.Params.List {
		if tv, ok := pass.TypesInfo.Types[fld.Type]; ok && analysis.IsContextType(tv.Type) {
			return true
		}
	}
	return false
}

// checkBody flags channel range loops in body and in nested closures
// that do not declare their own context parameter (those capture the
// outer context and inherit its cancellation obligation).
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			// A closure with its own ctx param is its own unit; run
			// re-checks it with that context.
			if hasContextParam(pass, s.Type) {
				return false
			}
		case *ast.RangeStmt:
			tv, ok := pass.TypesInfo.Types[s.X]
			if !ok {
				return true
			}
			if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
				return true
			}
			if pass.ExemptedAt(s.For, "drain") || selectsOnDone(pass, s.Body) {
				return true
			}
			pass.Reportf(s.For, "for-range over a channel in a context-aware function never observes ctx.Done(); a cancelled caller blocks until the channel closes (the LearnStream drain bug class) — use for/select with a ctx.Done() case or annotate //sbvet:drain")
		}
		return true
	})
}

// selectsOnDone reports whether body contains a select with a
// <-ctx.Done() case — the loop is then at least cancellation-aware
// between receives.
func selectsOnDone(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		cc, ok := n.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			return true
		}
		var expr ast.Expr
		switch s := cc.Comm.(type) {
		case *ast.ExprStmt:
			expr = s.X
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 {
				expr = s.Rhs[0]
			}
		}
		un, ok := expr.(*ast.UnaryExpr)
		if !ok {
			return true
		}
		call, ok := un.X.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return true
		}
		if tv, ok := pass.TypesInfo.Types[sel.X]; ok && analysis.IsContextType(tv.Type) {
			found = true
			return false
		}
		return true
	})
	return found
}
