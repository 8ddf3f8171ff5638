package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// AtomicTypeName returns the type name ("Pointer", "Uint64", ...) if
// t (after stripping pointers) is a named type from sync/atomic, else
// "".
func AtomicTypeName(t types.Type) string {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		// Instantiated generics (atomic.Pointer[T]) still present as
		// *types.Named; aliases resolve via Unalias.
		if a, ok := types.Unalias(t).(*types.Named); ok {
			named = a
		} else {
			return ""
		}
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return ""
	}
	return obj.Name()
}

// IsAtomicCounter reports whether t is one of sync/atomic's integer
// counter types, or an array of them (the engine's per-label counter
// array). Pointer, Value, and Bool are not counters: they carry
// state, not tallies, so statscomplete leaves them alone.
func IsAtomicCounter(t types.Type) bool {
	if arr, ok := t.Underlying().(*types.Array); ok {
		t = arr.Elem()
	}
	switch AtomicTypeName(t) {
	case "Int32", "Int64", "Uint32", "Uint64":
		return true
	}
	return false
}

// IsObsMetric reports whether t is one of the obs package's stored
// instruments — Counter, Gauge, or Histogram — behind any pointer, or
// an array of them (the engine's per-label counter array). These are
// the registered-metric analogue of the atomic counters: a struct
// field holding one is accounting state its snapshot method is
// obligated to surface. Tracer, Registry, and the func-sampled
// instruments carry no stored value, so they are not metrics here.
func IsObsMetric(t types.Type) bool {
	if arr, ok := t.Underlying().(*types.Array); ok {
		t = arr.Elem()
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	if path := obj.Pkg().Path(); path != "obs" && !strings.HasSuffix(path, "/obs") {
		return false
	}
	switch obj.Name() {
	case "Counter", "Gauge", "Histogram":
		return true
	}
	return false
}

// MethodCallee returns the *types.Func a selector call resolves to if
// it is a method value call, else nil.
func MethodCallee(info *types.Info, sel *ast.SelectorExpr) *types.Func {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil
	}
	fn, _ := s.Obj().(*types.Func)
	return fn
}

// WalkSkipFuncLit walks n in depth-first order like ast.Inspect but
// does not descend into function literals, so one function body can
// be analyzed as a unit with nested closures treated as their own
// bodies.
func WalkSkipFuncLit(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		if _, ok := c.(*ast.FuncLit); ok && c != n {
			return false
		}
		return fn(c)
	})
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
