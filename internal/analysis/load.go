package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, type-checked package — the unit a
// Pass analyzes.
type Package struct {
	// PkgPath is the import path; a test package carries the go
	// command's bracketed suffix, as in "p [p.test]".
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	// TypeErrors holds any type-check errors. Analysis still runs on a
	// partially checked package, mirroring go vet, but the checker
	// surfaces these so a broken build is never reported as "clean".
	TypeErrors []error
}

// Loader parses and type-checks packages from source with no help
// from the go command: module-internal imports resolve against the
// module root, everything else falls back to a source-level stdlib
// importer. It exists because this environment has no module proxy —
// the real golang.org/x/tools loaders are unreachable — and doubles
// as the fixture loader for the analysistest harness (a testdata/src
// tree is just a Loader with an empty module path).
type Loader struct {
	fset *token.FileSet
	// root is the directory package dirs resolve under.
	root string
	// modPath is the module path declared by root's go.mod; "" means
	// fixture mode, where import paths are directories under root.
	modPath string
	std     types.Importer
	pkgs    map[string]*Package
	// order records load completion order: dependencies before
	// dependents, deterministically (parse order drives import order).
	order   []*Package
	loading map[string]bool
}

// NewLoader returns a loader rooted at dir. modPath is the module
// path import paths are resolved against; pass "" for a fixture tree
// whose import paths are root-relative directories.
func NewLoader(root, modPath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		fset:    fset,
		root:    root,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// NewModuleLoader reads root/go.mod for the module path and returns a
// loader for the module rooted there.
func NewModuleLoader(root string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: reading module root: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", root)
	}
	return NewLoader(root, modPath), nil
}

// Fset returns the loader's file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// dirFor maps an import path to a directory under root, or "" if the
// path is not module-internal.
func (l *Loader) dirFor(path string) string {
	if l.modPath == "" {
		dir := filepath.Join(l.root, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir
		}
		return ""
	}
	if path == l.modPath {
		return l.root
	}
	if rest, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		return filepath.Join(l.root, filepath.FromSlash(rest))
	}
	return ""
}

// Import implements types.Importer, so the loader can hand itself to
// types.Config and have module-internal imports recurse.
func (l *Loader) Import(path string) (*types.Package, error) {
	if dir := l.dirFor(path); dir != "" {
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// LoadImport loads (or returns the cached) package for an
// internal import path.
func (l *Loader) LoadImport(path string) (*Package, error) {
	dir := l.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("analysis: %q is not under the load root", path)
	}
	return l.load(path, dir)
}

// load parses dir's non-test Go files (honoring build constraints via
// go/build) and type-checks them.
func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	files, err := l.parse(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	pkg := l.check(path, path, files, l)
	l.pkgs[path] = pkg
	l.order = append(l.order, pkg)
	return pkg, nil
}

// parse parses the named files of dir.
func (l *Loader) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks files as the package path, resolving imports
// through imp; id names the result (its PkgPath).
func (l *Loader) check(id, path string, files []*ast.File, imp types.Importer) *Package {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg := &Package{PkgPath: id, Fset: l.fset, Files: files, TypesInfo: info}
	cfg := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns the (possibly incomplete) package even on error;
	// the collected TypeErrors carry the failure.
	pkg.Types, _ = cfg.Check(path, l.fset, files, info)
	return pkg
}

// Tests loads the test packages of the package at path the way the go
// command builds them, dependencies first: the package type-checked
// again with its in-package _test.go files (a variant no importer of
// the plain package sees), every module package the external test
// imports that reaches path, type-checked again over that variant,
// and the external _test package. A package without test files has
// none.
func (l *Loader) Tests(path string) ([]*Package, error) {
	base, err := l.LoadImport(path)
	if err != nil {
		return nil, err
	}
	dir := l.dirFor(path)
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	suffix := " [" + path + ".test]"
	var out []*Package
	imp := &testImporter{l: l, under: base, reach: make(map[string]bool), pkgs: make(map[string]*Package)}
	if len(bp.TestGoFiles) > 0 {
		files, err := l.parse(dir, bp.TestGoFiles)
		if err != nil {
			return nil, err
		}
		imp.variant = l.check(path+suffix, path, append(base.Files[:len(base.Files):len(base.Files)], files...), l)
		out = append(out, imp.variant)
	}
	if len(bp.XTestGoFiles) > 0 {
		files, err := l.parse(dir, bp.XTestGoFiles)
		if err != nil {
			return nil, err
		}
		xtest := l.check(path+"_test"+suffix, path+"_test", files, imp)
		out = append(append(out, imp.order...), xtest)
	}
	return out, nil
}

// testImporter resolves an external test's imports: the package under
// test to its test variant, and every module package that imports it,
// directly or not, to a copy type-checked over that variant — without
// the copies the variant's types would meet the plain package's in one
// program. Everything else resolves as the loader resolves it.
type testImporter struct {
	l     *Loader
	under *Package
	// variant is under with its in-package tests, nil if it has none;
	// then the plain package serves and nothing is recompiled.
	variant *Package
	// reach memoizes whether a module package reaches under.
	reach map[string]bool
	pkgs  map[string]*Package
	// order records the recompiled packages, dependencies first.
	order []*Package
}

func (t *testImporter) Import(path string) (*types.Package, error) {
	if t.variant == nil || t.l.dirFor(path) == "" {
		return t.l.Import(path)
	}
	if path == t.under.PkgPath {
		return t.variant.Types, nil
	}
	if pkg := t.pkgs[path]; pkg != nil {
		return pkg.Types, nil
	}
	base, err := t.l.LoadImport(path)
	if err != nil {
		return nil, err
	}
	if !t.reaches(base.Types) {
		return base.Types, nil
	}
	pkg := t.l.check(path+" ["+t.under.PkgPath+".test]", path, base.Files, t)
	t.pkgs[path] = pkg
	t.order = append(t.order, pkg)
	return pkg.Types, nil
}

// reaches reports whether the module package pkg imports the package
// under test, directly or through other module packages.
func (t *testImporter) reaches(pkg *types.Package) bool {
	r, ok := t.reach[pkg.Path()]
	if !ok {
		for _, imp := range pkg.Imports() {
			if imp == t.under.Types || (t.l.Loaded(imp.Path()) != nil && t.reaches(imp)) {
				r = true
				break
			}
		}
		t.reach[pkg.Path()] = r
	}
	return r
}

// Loaded returns the already-loaded package for an import path, or
// nil. It never triggers a load, so checkers can map a type-checked
// import back to its source package without risking re-entrancy.
func (l *Loader) Loaded(path string) *Package { return l.pkgs[path] }

// LoadedPackages returns every package this loader has loaded, in
// completion order: dependencies before dependents. The slice is
// shared; callers must not mutate it.
func (l *Loader) LoadedPackages() []*Package { return l.order }

// Packages enumerates the import paths of every package under root
// matching the patterns. Supported patterns are the go tool's common
// forms: "./...", "dir/...", and plain directories; an empty pattern
// list means "./...". Directories named testdata, vendored trees, and
// hidden or underscore-prefixed directories are skipped, as the go
// tool skips them.
func (l *Loader) Packages(patterns ...string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var all []string
	err := filepath.WalkDir(l.root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if dir != l.root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return fs.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if err != nil || len(bp.GoFiles) == 0 {
			return nil // not a buildable package; keep walking
		}
		rel, err := filepath.Rel(l.root, dir)
		if err != nil {
			return err
		}
		all = append(all, l.pathFor(filepath.ToSlash(rel)))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var out []string
	for _, path := range all {
		for _, pat := range patterns {
			if l.match(pat, path) {
				out = append(out, path)
				break
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// pathFor converts a root-relative directory to an import path.
func (l *Loader) pathFor(rel string) string {
	switch {
	case l.modPath == "":
		return rel
	case rel == ".":
		return l.modPath
	default:
		return l.modPath + "/" + rel
	}
}

// match reports whether a package path matches one go-style pattern.
func (l *Loader) match(pat, path string) bool {
	pat = strings.TrimPrefix(pat, "./")
	if pat == "..." || pat == "" {
		return true
	}
	pat = l.pathFor(strings.TrimSuffix(pat, "/"))
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		return path == rest || strings.HasPrefix(path, rest+"/")
	}
	return path == pat
}
