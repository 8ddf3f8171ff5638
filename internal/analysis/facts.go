package analysis

import (
	"fmt"
	"go/types"
	"reflect"
	"sort"
)

// Fact is a datum one analyzer pass attaches to a types.Object or a
// package so downstream packages can query it — the interprocedural
// layer's currency. The interface deliberately mirrors
// golang.org/x/tools/go/analysis.Fact (a marker method, pointer
// receivers) so the planned mechanical migration to the real
// framework carries the fact types over unchanged.
//
// Each fact type belongs to exactly one analyzer, declared in its
// FactTypes list; the store namespaces facts by (analyzer, fact type),
// so two analyzers can attach different facts to one function without
// colliding.
type Fact interface {
	// AFact is a marker method; implementations are empty.
	AFact()
}

// ObjectFact is one (object, fact) pair, as enumerated by a fact
// store.
type ObjectFact struct {
	Object types.Object
	Fact   Fact
}

// PackageFact is one (package, fact) pair.
type PackageFact struct {
	Package *types.Package
	Fact    Fact
}

// factKey namespaces object facts: one analyzer's fact of one concrete
// type on one object.
type factKey struct {
	analyzer string
	obj      types.Object
	factType reflect.Type
}

// pkgFactKey namespaces package facts.
type pkgFactKey struct {
	analyzer string
	pkg      *types.Package
	factType reflect.Type
}

// FactStore holds every fact one checker run accumulates, across all
// packages, keyed by canonical types.Object identity (all packages in
// a run share one Loader, so objects are canonical), in memory across
// the dependency-ordered walk.
type FactStore struct {
	objFacts map[factKey]Fact
	pkgFacts map[pkgFactKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{
		objFacts: make(map[factKey]Fact),
		pkgFacts: make(map[pkgFactKey]Fact),
	}
}

// validFact panics unless fact is a pointer — the shape
// ImportObjectFact's copy-out contract requires (and what x/tools
// enforces).
func validFact(fact Fact) reflect.Type {
	t := reflect.TypeOf(fact)
	if t == nil || t.Kind() != reflect.Ptr {
		panic(fmt.Sprintf("analysis: fact %T is not a pointer", fact))
	}
	return t
}

// SetObjectFact records fact for obj under the analyzer's namespace,
// replacing any previous fact of the same concrete type.
func (s *FactStore) SetObjectFact(analyzer string, obj types.Object, fact Fact) {
	if obj == nil {
		panic("analysis: SetObjectFact with nil object")
	}
	s.objFacts[factKey{analyzer, obj, validFact(fact)}] = fact
}

// ObjectFact copies the stored fact of *fact's concrete type for obj
// into fact, reporting whether one existed.
func (s *FactStore) ObjectFact(analyzer string, obj types.Object, fact Fact) bool {
	stored, ok := s.objFacts[factKey{analyzer, obj, validFact(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// SetPackageFact records fact for pkg under the analyzer's namespace.
func (s *FactStore) SetPackageFact(analyzer string, pkg *types.Package, fact Fact) {
	if pkg == nil {
		panic("analysis: SetPackageFact with nil package")
	}
	s.pkgFacts[pkgFactKey{analyzer, pkg, validFact(fact)}] = fact
}

// PackageFact copies the stored fact of *fact's concrete type for pkg
// into fact, reporting whether one existed.
func (s *FactStore) PackageFact(analyzer string, pkg *types.Package, fact Fact) bool {
	stored, ok := s.pkgFacts[pkgFactKey{analyzer, pkg, validFact(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// allObjectFacts returns the analyzer's object facts in a
// deterministic order (by object position, then fact type name).
func (s *FactStore) allObjectFacts(analyzer string) []ObjectFact {
	var out []ObjectFact
	for k, f := range s.objFacts {
		if k.analyzer == analyzer {
			out = append(out, ObjectFact{Object: k.obj, Fact: f})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Object.Pos() != out[j].Object.Pos() {
			return out[i].Object.Pos() < out[j].Object.Pos()
		}
		return fmt.Sprintf("%T", out[i].Fact) < fmt.Sprintf("%T", out[j].Fact)
	})
	return out
}

// allPackageFacts returns the analyzer's package facts in a
// deterministic order (by package path, then fact type name).
func (s *FactStore) allPackageFacts(analyzer string) []PackageFact {
	var out []PackageFact
	for k, f := range s.pkgFacts {
		if k.analyzer == analyzer {
			out = append(out, PackageFact{Package: k.pkg, Fact: f})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Package.Path() != out[j].Package.Path() {
			return out[i].Package.Path() < out[j].Package.Path()
		}
		return fmt.Sprintf("%T", out[i].Fact) < fmt.Sprintf("%T", out[j].Fact)
	})
	return out
}

// bindFacts installs the fact accessors on a pass, scoping exports to
// the pass's own package — the x/tools contract: an analyzer may
// attach facts only to objects (or the package) it is currently
// analyzing, and may query any object whose package has already been
// analyzed.
func bindFacts(pass *Pass, store *FactStore) {
	name := pass.Analyzer.Name
	pass.ExportObjectFact = func(obj types.Object, fact Fact) {
		if obj.Pkg() != pass.Pkg {
			panic(fmt.Sprintf("analysis: %s: ExportObjectFact on %v of foreign package %v", name, obj, obj.Pkg()))
		}
		store.SetObjectFact(name, obj, fact)
	}
	pass.ImportObjectFact = func(obj types.Object, fact Fact) bool {
		return store.ObjectFact(name, obj, fact)
	}
	pass.ExportPackageFact = func(fact Fact) {
		store.SetPackageFact(name, pass.Pkg, fact)
	}
	pass.ImportPackageFact = func(pkg *types.Package, fact Fact) bool {
		return store.PackageFact(name, pkg, fact)
	}
	pass.AllObjectFacts = func() []ObjectFact { return store.allObjectFacts(name) }
	pass.AllPackageFacts = func() []PackageFact { return store.allPackageFacts(name) }
}
