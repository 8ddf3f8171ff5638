// Package facadeexport proves the facade-completeness invariant:
// every exported capability of the API packages — internal/engine,
// internal/admission, internal/serve and internal/obs — must be
// re-exported by the repro facade.
//
// The module's internal/ layout makes the facade the only public
// surface: a symbol exported from internal/engine but not aliased in
// package repro is unreachable outside the module, so the capability
// silently does not exist for users. Earlier PRs grew the engine
// faster than the facade and shipped exactly such gaps.
//
// The analyzer has two halves joined by facts:
//
//   - on an API package, it exports a nofacadeFact for each exported
//     declaration annotated //sbvet:nofacade — the declaration's own
//     package opts it out of the facade contract, with a reason (for
//     example, admission's aliases of the engine-declared contract,
//     which the facade already re-exports from the engine side);
//   - on the facade — the package named "repro" — it compares each
//     imported API package's exported scope against what the facade
//     surfaces and reports one diagnostic per API package, at that
//     package's import, listing every missing name in sorted order.
//
// A capability counts as surfaced when the facade declares the same
// exported name, or references the symbol anywhere in its files — an
// alias under a clearer name (EngineConfig = engine.Config), a
// wrapper function's body, or a re-exported constant all mention the
// symbol, so renamed re-exports are not false positives.
//
// The fix is to add the alias (or wrapper) to the facade with a doc
// comment, or to annotate the declaration //sbvet:nofacade where the
// omission is deliberate. A //sbvet:nofacade directive on the import
// line waives the whole package. _test.go files are exempt.
package facadeexport

import (
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the facadeexport check.
var Analyzer = &analysis.Analyzer{
	Name:      "facadeexport",
	Doc:       "flag exported API-package capabilities the repro facade fails to re-export",
	Run:       run,
	FactTypes: []analysis.Fact{(*nofacadeFact)(nil)},
}

// nofacadeFact marks an exported declaration as deliberately excluded
// from the facade contract by its own package.
type nofacadeFact struct{}

// AFact marks nofacadeFact as a fact type.
func (*nofacadeFact) AFact() {}

// APIPackages lists the package-path suffixes whose exported surface
// the facade must mirror.
var APIPackages = []string{
	"internal/engine",
	"internal/admission",
	"internal/serve",
	"internal/obs",
}

// FacadeName is the package name identifying the facade.
const FacadeName = "repro"

func run(pass *analysis.Pass) error {
	if matchesSuffix(pass.Pkg.Path(), APIPackages) {
		// API-package half: record the opt-outs.
		for _, name := range pass.Pkg.Scope().Names() {
			obj := pass.Pkg.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			if pass.ExemptedAt(obj.Pos(), "nofacade") {
				pass.ExportObjectFact(obj, &nofacadeFact{})
			}
		}
		return nil
	}

	if pass.Pkg.Name() != FacadeName {
		return nil
	}

	// Facade half: every exported API name must be surfaced — same
	// name in our scope, or the symbol referenced somewhere in our
	// files (a renamed alias, a wrapper, a re-exported constant).
	facade := make(map[string]bool)
	for _, name := range pass.Pkg.Scope().Names() {
		facade[name] = true
	}
	used := make(map[types.Object]bool)
	for _, obj := range pass.TypesInfo.Uses {
		used[obj] = true
	}
	for _, imp := range pass.Pkg.Imports() {
		if !matchesSuffix(imp.Path(), APIPackages) {
			continue
		}
		var missing []string
		for _, name := range imp.Scope().Names() {
			obj := imp.Scope().Lookup(name)
			if !obj.Exported() || facade[name] || used[obj] {
				continue
			}
			var nf nofacadeFact
			if pass.ImportObjectFact(obj, &nf) {
				continue
			}
			missing = append(missing, name)
		}
		if len(missing) == 0 {
			continue
		}
		sort.Strings(missing)
		pos := importPos(pass, imp.Path())
		if pass.IsTestFile(pos) || pass.ExemptedAt(pos, "nofacade") {
			continue
		}
		pass.Reportf(pos, "facade gap: %s exports %s but the %s facade does not re-export %s; alias %s in the facade with a doc comment or annotate the declaration //sbvet:nofacade with a reason",
			imp.Path(), strings.Join(missing, ", "), FacadeName,
			plural(missing, "it", "them"), plural(missing, "it", "them"))
	}
	return nil
}

// importPos finds the import spec for path in the facade's files,
// falling back to the first file's package clause.
func importPos(pass *analysis.Pass, path string) token.Pos {
	for _, file := range pass.Files {
		for _, spec := range file.Imports {
			if p, err := strconv.Unquote(spec.Path.Value); err == nil && p == path {
				return spec.Pos()
			}
		}
	}
	return pass.Files[0].Name.Pos()
}

// plural picks one for a single missing name, many otherwise.
func plural(missing []string, one, many string) string {
	if len(missing) == 1 {
		return one
	}
	return many
}

// matchesSuffix reports whether pkgPath equals an entry or ends in
// "/"+entry.
func matchesSuffix(pkgPath string, entries []string) bool {
	for _, entry := range entries {
		if pkgPath == entry || strings.HasSuffix(pkgPath, "/"+entry) {
			return true
		}
	}
	return false
}
