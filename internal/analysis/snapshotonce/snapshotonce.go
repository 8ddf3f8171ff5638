// Package snapshotonce enforces the serving layer's torn-read
// invariant: within one function body the atomically published
// snapshot pointer is read at most once, and never inside a loop.
//
// The Engine serves its classifier behind an atomic.Pointer that a
// retrain can swap at any instant. Every decision — a batch score, an
// error-path generation report, a clone-for-retrain — must therefore
// be computed against ONE load of that pointer; a second load in the
// same body can observe a different generation, silently mixing a
// batch across filters (the PR 2 bug class that
// TestServeWhileRetrainNoTornReads only catches when the race window
// happens to open). The analyzer counts two kinds of read:
//
//   - direct loads: x.field.Load() where field is an atomic.Pointer;
//   - accessor loads: calls to same-package methods whose body is a
//     direct load of their receiver's atomic.Pointer field (the
//     engine's Generation/Snapshots accessors), keyed by the pointer
//     they load, so eng.Snapshots()+eng.Generation() in one body is
//     recognized as two reads of one pointer.
//
// Reads inside a loop are flagged even on first occurrence, also when
// the pointer hangs off a loop variable: reading one pointer per item
// is N reads a publish can straddle — the torn fleet read that one
// epoch pointer for every shard replaced. Intentional re-reads carry a
// //sbvet:reload directive. _test.go files are exempt: tests re-read
// pointers to assert that a publish changed the generation.
package snapshotonce

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the snapshotonce check.
var Analyzer = &analysis.Analyzer{
	Name: "snapshotonce",
	Doc:  "flag function bodies that read an atomically published snapshot pointer more than once, or inside a loop",
	Run:  run,
}

// event is one snapshot-pointer read.
type event struct {
	pos token.Pos
	// key names the pointer being read, e.g. "e.cur" for a direct
	// load or "g.eng.cur" for a read through an accessor method.
	key string
	// loop is the innermost enclosing for/range statement, nil if
	// none.
	loop ast.Node
}

func run(pass *analysis.Pass) error {
	accessors := findAccessors(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkBody(pass, accessors, fn.Body)
				}
			case *ast.FuncLit:
				checkBody(pass, accessors, fn.Body)
			}
			return true
		})
	}
	return nil
}

// checkBody collects every snapshot read in one function body
// (closures excluded — they are their own bodies) and reports
// multiple reads of one pointer and loop-invariant reads in loops.
func checkBody(pass *analysis.Pass, accessors map[*types.Func]string, body *ast.BlockStmt) {
	var events []event
	collect(pass, accessors, body, nil, &events)

	first := make(map[string]token.Pos)
	for _, ev := range events {
		// Tests read snapshot pointers repeatedly on purpose — to
		// assert that a publish changed the generation.
		if pass.IsTestFile(ev.pos) {
			continue
		}
		if ev.loop != nil {
			if !pass.ExemptedAt(ev.pos, "reload") {
				pass.Reportf(ev.pos, "snapshot pointer %s is read inside a loop; an iteration running after a publish would mix generations — hoist one read above the loop or annotate //sbvet:reload", ev.key)
			}
			continue
		}
		at, seen := first[ev.key]
		if !seen {
			first[ev.key] = ev.pos
			continue
		}
		if !pass.ExemptedAt(ev.pos, "reload") {
			pass.Reportf(ev.pos, "snapshot pointer %s is read again in the same function body (first read at line %d); one decision must see one generation — load it once (e.g. a single Snapshot()) or annotate //sbvet:reload", ev.key, pass.Fset.Position(at).Line)
		}
	}
}

// collect walks stmts (not descending into closures), tracking the
// innermost enclosing loop.
func collect(pass *analysis.Pass, accessors map[*types.Func]string, n ast.Node, loop ast.Node, events *[]event) {
	switch s := n.(type) {
	case nil:
		return
	case *ast.FuncLit:
		return
	case *ast.ForStmt:
		collectChildren(pass, accessors, s, s, events)
		return
	case *ast.RangeStmt:
		collectChildren(pass, accessors, s, s, events)
		return
	case *ast.CallExpr:
		if sel, ok := s.Fun.(*ast.SelectorExpr); ok {
			if key, ok := snapshotRead(pass, accessors, sel); ok {
				*events = append(*events, event{pos: s.Lparen, key: key, loop: loop})
			}
		}
	}
	collectChildren(pass, accessors, n, loop, events)
}

// collectChildren recurses into n's direct children with the given
// loop context.
func collectChildren(pass *analysis.Pass, accessors map[*types.Func]string, n ast.Node, loop ast.Node, events *[]event) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c == nil {
			return false
		}
		collect(pass, accessors, c, loop, events)
		return false
	})
}

// snapshotRead classifies one selector call as a snapshot-pointer
// read, returning the pointer key.
func snapshotRead(pass *analysis.Pass, accessors map[*types.Func]string, sel *ast.SelectorExpr) (string, bool) {
	// Direct load: x.field.Load() on an atomic.Pointer.
	if sel.Sel.Name == "Load" {
		if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.MethodVal && analysis.AtomicTypeName(s.Recv()) == "Pointer" {
			return types.ExprString(sel.X), true
		}
	}
	// Accessor load: a call to a same-package method whose body is a
	// direct load of its receiver's pointer field.
	if fn := analysis.MethodCallee(pass.TypesInfo, sel); fn != nil {
		if field, ok := accessors[fn]; ok {
			return types.ExprString(sel.X) + "." + field, true
		}
	}
	return "", false
}

// findAccessors maps each method in this package that is a pure
// snapshot accessor to the atomic.Pointer field it loads. A pure
// accessor's body makes exactly one call, and that call is a direct
// recv.field.Load() of an atomic.Pointer field — the engine's
// Generation/Snapshots shape. Its whole result is derived
// from one load, so a call to it IS a pointer read at the call site.
// Methods that merely use the snapshot internally (Classify loads
// once, then scores) are not accessors: calling them twice is two
// self-consistent decisions, not a torn read.
func findAccessors(pass *analysis.Pass) map[*types.Func]string {
	out := make(map[*types.Func]string)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
			if obj == nil {
				continue
			}
			calls := 0
			field := ""
			analysis.WalkSkipFuncLit(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				calls++
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Load" {
					return true
				}
				s, ok := pass.TypesInfo.Selections[sel]
				if !ok || s.Kind() != types.MethodVal || analysis.AtomicTypeName(s.Recv()) != "Pointer" {
					return true
				}
				// The loaded pointer must be a field directly on the
				// method receiver (recvIdent.field.Load()).
				fieldSel, ok := sel.X.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if _, ok := fieldSel.X.(*ast.Ident); !ok {
					return true
				}
				if fs, ok := pass.TypesInfo.Selections[fieldSel]; ok && fs.Kind() == types.FieldVal {
					field = fieldSel.Sel.Name
				}
				return true
			})
			if calls == 1 && field != "" {
				out[obj] = field
			}
		}
	}
	return out
}
