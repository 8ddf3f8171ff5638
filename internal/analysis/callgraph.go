package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// CallSite is one call expression attributed to a calling function.
type CallSite struct {
	// Pos is the call's left parenthesis.
	Pos token.Pos
	// Callee is the statically resolved target: a package-level
	// function, a concrete method, or an interface method (resolve the
	// latter's implementations with Implementations).
	Callee *types.Func
}

// CallGraph is a static call graph over one or more loaded packages;
// the checker builds one over the whole module.
//
// Nodes are *types.Func. Edges come from two sources:
//
//   - static calls: f() on a package-level function, x.M() on a
//     concrete receiver, and pkg.F() across packages;
//   - interface dispatch: x.M() where x's type is an interface edges
//     to the interface's method object; Implementations resolves that
//     object to every concrete method of a known type that satisfies
//     the declared interface (the engine's Classifier/Admitter shape).
//
// Calls inside a function literal are attributed to the enclosing
// named function: the graph answers "can running f cause this call?",
// and a closure f builds is work f set in motion (the background
// builder goroutines the scenario layer uses). Calls through function
// variables are not resolved; the analyzers that need soundness there
// (admitflow, hookorder) additionally recognize their sinks by shape
// at every call site, so indirection can hide a caller but not a sink.
type CallGraph struct {
	sites map[*types.Func][]CallSite
	// ifaceMethods is every interface method object seen while adding
	// packages; implementations are resolved lazily against the
	// accumulated concrete types.
	ifaceMethods map[*types.Func]bool
	// named is every package-level named type (with methods) seen.
	named []*types.Named
	// impls caches Implementations results; reset on AddPackage.
	impls map[*types.Func][]*types.Func
	funcs []*types.Func
}

// NewCallGraph returns an empty graph.
func NewCallGraph() *CallGraph {
	return &CallGraph{
		sites:        make(map[*types.Func][]CallSite),
		ifaceMethods: make(map[*types.Func]bool),
		impls:        make(map[*types.Func][]*types.Func),
	}
}

// AddPackage indexes pkg's function bodies and named types into the
// graph. Packages added later extend interface-method resolution for
// everything already indexed.
func (g *CallGraph) AddPackage(pkg *Package) {
	// New concrete types can extend any interface method's
	// implementation set.
	g.impls = make(map[*types.Func][]*types.Func)

	if pkg.Types != nil {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				g.named = append(g.named, named)
				if iface, ok := named.Underlying().(*types.Interface); ok {
					for i := 0; i < iface.NumExplicitMethods(); i++ {
						g.ifaceMethods[iface.ExplicitMethod(i)] = true
					}
				}
			}
		}
	}

	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			caller, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
			if caller == nil {
				continue
			}
			g.funcs = append(g.funcs, caller)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := Callee(pkg.TypesInfo, call); callee != nil {
					g.sites[caller] = append(g.sites[caller], CallSite{Pos: call.Lparen, Callee: callee})
				}
				return true
			})
		}
	}
}

// Callee statically resolves a call expression to the *types.Func it
// invokes: a package-level function, a method (concrete or interface),
// or nil for calls through function values, conversions, and builtins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal {
				fn, _ := sel.Obj().(*types.Func)
				return fn
			}
			return nil
		}
		// No selection: a package-qualified call, pkg.F().
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// CallSites returns f's call sites in source order. The slice is
// shared; callers must not mutate it.
func (g *CallGraph) CallSites(f *types.Func) []CallSite { return g.sites[f] }

// Funcs returns every function with an indexed body, in the order the
// packages were added (deterministic: AST order within a package).
func (g *CallGraph) Funcs() []*types.Func { return g.funcs }

// IsInterfaceMethod reports whether m is an explicit method of a named
// interface type the graph has seen.
func (g *CallGraph) IsInterfaceMethod(m *types.Func) bool {
	if g.ifaceMethods[m] {
		return true
	}
	// Interface methods reached through embedded interfaces or
	// non-package-level declarations: detect by receiver type.
	sig, ok := m.Type().(*types.Signature)
	return ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type())
}

// Implementations resolves an interface method to the corresponding
// concrete methods of every known named type that satisfies the
// method's interface — the "declared interface types" resolution the
// engine's Classifier/Admitter dispatch needs. Results are cached and
// deterministic (indexed-type order).
func (g *CallGraph) Implementations(m *types.Func) []*types.Func {
	if cached, ok := g.impls[m]; ok {
		return cached
	}
	var out []*types.Func
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		g.impls[m] = nil
		return nil
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		g.impls[m] = nil
		return nil
	}
	for _, named := range g.named {
		if types.IsInterface(named.Underlying()) {
			continue
		}
		recv := types.Type(named)
		if !types.Implements(recv, iface) {
			recv = types.NewPointer(named)
			if !types.Implements(recv, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok && fn != m {
			out = append(out, fn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	g.impls[m] = out
	return out
}
