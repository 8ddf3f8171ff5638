// Package admitflow proves the guarded-training invariant
// interprocedurally: outside the packages that own training, no call
// path may reach the serving engine's training surface — or a
// backend's raw learners — without passing through the admission
// guard.
//
// The paper's defense (§5, RONI) only works if every training path is
// vetted. PR 5 wired admission through engine.Guarded, but nothing
// stopped a future call site from training an Engine directly and
// silently reopening the poisoning hole; the PR 6 analyzers are
// intraprocedural and cannot see a sink two calls away. This analyzer
// walks the call graph:
//
//   - sinks are the engine-level training surface — Swap, the one raw
//     publish on the engine package's Engine type (training a
//     replacement off to the side and swapping it in bypasses the
//     guard's vetting) — and the backend-level learners: any method
//     shaped like Learn(x, bool),
//     LearnWeighted(x, bool, int) or LearnTokenStream(x, bool, int),
//     including the Classifier interface's own (so dispatch through
//     the declared interface is caught, not just concrete calls);
//   - guards stop the search: methods on Guarded (every training
//     path through them is vetted by construction)
//     and functions that vet inline — a direct call to an Admitter's
//     Admit or a guard's Vet;
//   - taint flows bottom-up: a function with an unwaived sink call is
//     itself an unvetted training path, and so is anything that calls
//     it, across packages via exported trainsFact facts (calls inside
//     function literals are attributed to the enclosing function);
//   - interface dispatch resolves to known implementations: a locally
//     declared interface whose method set is satisfied by the engine
//     (a front-end abstracting "something I can Swap") does not
//     launder the path — the dispatched call is flagged as reaching
//     the concrete sink.
//
// Within the owner packages — internal/engine and internal/admission
// (the guard itself), internal/tokendb (the token-count database both
// backends embed: the learners live there), internal/core and
// internal/eval (the clone-and-probe measurement layer and the
// sanctioned corpus-training primitives, which train throwaway
// classifiers off the serving path) — training is the package's job
// and nothing is reported or tainted.
// Everywhere else a diagnostic fires at every call site on an unvetted
// path: the direct sink call and each hop above it, so the report
// points at both the hole and the door to it.
//
// A //sbvet:unguarded directive (with a reason) waives one call site
// and sanitizes its function for callers: the annotation asserts this
// unguarded training is intentional — the scenario simulator's
// unguarded baseline arm, an example demonstrating the attack — so
// paths through it are deliberate, not leaks. _test.go files are
// exempt: tests train fixtures directly as setup.
package admitflow

import (
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the admitflow check.
var Analyzer = &analysis.Analyzer{
	Name:      "admitflow",
	Doc:       "flag call paths that reach the engine's training surface without passing through the admission guard",
	Run:       run,
	FactTypes: []analysis.Fact{(*trainsFact)(nil)},
}

// trainsFact marks an exported function as an unvetted training path:
// calling it (transitively) trains without admission. Sink names the
// training method the path reaches, for the diagnostic.
type trainsFact struct {
	Sink string
}

// AFact marks trainsFact as a fact type.
func (*trainsFact) AFact() {}

// Owners lists the package-path suffixes that own training: no
// diagnostics inside them, and their functions never taint callers —
// ownership is the sanction. A package matches when its import path
// equals an entry or ends in "/"+entry.
var Owners = []string{
	"internal/engine",
	"internal/admission",
	"internal/tokendb",
	"internal/core",
	"internal/eval",
}

// engineOwners is the subset whose Engine type carries the
// serving-level sink methods.
var engineOwners = []string{"internal/engine"}

// engineSinkNames is the serving engine's training surface: its one
// raw publish. Guarded's RetrainIncremental, the one learn path, is a
// guard.
var engineSinkNames = map[string]bool{
	"Swap": true,
}

func run(pass *analysis.Pass) error {
	if matchesSuffix(pass.Pkg.Path(), Owners) {
		return nil
	}

	var funcs []*types.Func
	for _, f := range pass.Graph.Funcs() {
		if f.Pkg() == pass.Pkg {
			funcs = append(funcs, f)
		}
	}

	guard := make(map[*types.Func]bool, len(funcs))
	for _, f := range funcs {
		guard[f] = isGuard(pass.Graph, f)
	}

	// Bottom-up taint: a function is an unvetted training path if any
	// unwaived call site reaches a sink, directly or through an
	// already-tainted callee (local fixpoint; cross-package through
	// imported facts). Waived sites sanitize: an annotated function is
	// intentional, so its callers are not flagged through it.
	tainted := make(map[*types.Func]string)
	for changed := true; changed; {
		changed = false
		for _, f := range funcs {
			if guard[f] || tainted[f] != "" {
				continue
			}
			for _, site := range pass.Graph.CallSites(f) {
				if pass.IsTestFile(site.Pos) || pass.ExemptedAt(site.Pos, "unguarded") {
					continue
				}
				if sink := calleeSink(pass, tainted, site.Callee); sink != "" {
					tainted[f] = sink
					changed = true
					break
				}
			}
		}
	}

	for _, f := range funcs {
		if guard[f] {
			continue
		}
		for _, site := range pass.Graph.CallSites(f) {
			if pass.IsTestFile(site.Pos) || pass.ExemptedAt(site.Pos, "unguarded") {
				continue
			}
			if sink := sinkName(site.Callee); sink != "" {
				pass.Reportf(site.Pos, "unvetted training path: direct call to %s outside an admission guard; route it through Guarded/Admitter or annotate //sbvet:unguarded with a reason", sink)
				continue
			}
			if sink := calleeSink(pass, tainted, site.Callee); sink != "" {
				pass.Reportf(site.Pos, "unvetted training path: call to %s reaches %s without passing an admission guard; route the path through Guarded/Admitter or annotate //sbvet:unguarded with a reason", site.Callee.FullName(), sink)
			}
		}
	}

	for _, f := range funcs {
		if sink := tainted[f]; sink != "" {
			pass.ExportObjectFact(f, &trainsFact{Sink: sink})
		}
	}
	return nil
}

// calleeSink reports the training sink a call to callee reaches
// unvetted, or "" for a clean callee. It checks, in order: the callee
// is itself a sink; the callee is locally tainted; an imported
// trainsFact marks it; or it is an interface method one of whose known
// implementations is a sink or an unvetted training path (the
// call-graph resolution through declared interface types — including
// a locally declared interface satisfied by the engine itself).
func calleeSink(pass *analysis.Pass, tainted map[*types.Func]string, callee *types.Func) string {
	if callee == nil {
		return ""
	}
	if sink := sinkName(callee); sink != "" {
		return sink
	}
	if sink := tainted[callee]; sink != "" {
		return sink
	}
	var tf trainsFact
	if pass.ImportObjectFact(callee, &tf) {
		return tf.Sink
	}
	if pass.Graph.IsInterfaceMethod(callee) {
		for _, impl := range pass.Graph.Implementations(callee) {
			// The implementation may itself BE a sink — a locally declared
			// interface over the engine's training surface (a serving
			// front-end abstracting "something I can Swap")
			// resolves here, so wrapping the engine in an interface cannot
			// launder an unvetted training path.
			if sink := sinkName(impl); sink != "" {
				return sink
			}
			if sink := tainted[impl]; sink != "" {
				return sink
			}
			if pass.ImportObjectFact(impl, &tf) {
				return tf.Sink
			}
		}
	}
	return ""
}

// sinkName reports fn's full name if it is a training sink, else "".
func sinkName(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	switch name := fn.Name(); {
	case engineSinkNames[name]:
		recv, pkg := recvNamed(sig)
		if recv == "Engine" && pkg != nil && matchesSuffix(pkg.Path(), engineOwners) {
			return fn.FullName()
		}
	case name == "Learn":
		if p := sig.Params(); p.Len() == 2 && isBool(p.At(1).Type()) {
			return fn.FullName()
		}
	case name == "LearnWeighted" || name == "LearnTokenStream":
		if p := sig.Params(); p.Len() == 3 && isBool(p.At(1).Type()) && isInt(p.At(2).Type()) {
			return fn.FullName()
		}
	}
	return ""
}

// isGuard reports whether f's training calls are vetted by
// construction: a method on Guarded, or a function
// that vets inline (a direct call to an Admitter's Admit or a guard's
// Vet).
func isGuard(g *analysis.CallGraph, f *types.Func) bool {
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		if recv, _ := recvNamed(sig); recv == "Guarded" {
			return true
		}
	}
	for _, site := range g.CallSites(f) {
		if site.Callee == nil {
			continue
		}
		switch site.Callee.Name() {
		case "Admit":
			return true
		case "Vet":
			if sig, ok := site.Callee.Type().(*types.Signature); ok && sig.Recv() != nil {
				if recv, _ := recvNamed(sig); recv == "Guarded" {
					return true
				}
			}
		}
	}
	return false
}

// recvNamed returns the name and package of a method's receiver's
// named type, stripping one pointer.
func recvNamed(sig *types.Signature) (string, *types.Package) {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj().Name(), named.Obj().Pkg()
	}
	return "", nil
}

func isBool(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}

func isInt(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int
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
