// Package deploy is the checked surface: a deployment that must route
// all training through the admission guard. The fixture proves the
// acceptance case — an unguarded Swap two hops from the entry point
// is flagged at every hop, while the Guarded-routed twin is clean —
// plus the backend-level sinks, interface dispatch, inline vetting,
// and the //sbvet:unguarded waiver.
package deploy

import (
	"internal/engine"

	"deployutil"
)

// entry is two hops above the sink: entry -> helper -> Engine.Swap.
// The call below never mentions training, but the path reaches it.
func entry(e *engine.Engine, clf engine.Classifier) {
	helper(e, clf) // want `unvetted training path: call to deploy\.helper reaches \(\*internal/engine\.Engine\)\.Swap`
}

// helper is one hop above the sink.
func helper(e *engine.Engine, clf engine.Classifier) {
	e.Swap(clf) // want `unvetted training path: direct call to \(\*internal/engine\.Engine\)\.Swap`
}

// entryGuarded is the twin routed through Guarded: clean at every hop.
func entryGuarded(g *engine.Guarded, train []*engine.Message) {
	helperGuarded(g, train)
}

// helperGuarded trains through the guard.
func helperGuarded(g *engine.Guarded, train []*engine.Message) {
	g.RetrainIncremental(train)
}

// crossPackage inherits deployutil.Rebuild's taint through its
// exported fact; the guarded twin does not.
func crossPackage(e *engine.Engine, g *engine.Guarded, clf engine.Classifier, train []*engine.Message) {
	deployutil.Rebuild(e, clf) // want `unvetted training path: call to deployutil\.Rebuild reaches \(\*internal/engine\.Engine\)\.Swap`
	deployutil.RebuildVetted(g, train)
	deployutil.InjectAnnotated(nil, nil)
}

// backendDirect hits the backend-level sinks — the interface methods
// and token-stream training through the Classifier contract — and
// publishes the result raw.
func backendDirect(e *engine.Engine, clf engine.Classifier, m *engine.Message, ts *engine.TokenStream) {
	clf.Learn(m, true)                 // want `unvetted training path: direct call to \(internal/engine\.Classifier\)\.Learn`
	clf.LearnWeighted(m, true, 10)     // want `unvetted training path: direct call to \(internal/engine\.Classifier\)\.LearnWeighted`
	clf.LearnTokenStream(ts, false, 1) // want `unvetted training path: direct call to \(internal/engine\.Classifier\)\.LearnTokenStream`
	e.Swap(clf)                        // want `unvetted training path: direct call to \(\*internal/engine\.Engine\)\.Swap`
}

// vetsInline calls the Admitter itself before training: a guard, so
// its training and publishing calls are sanctioned.
func vetsInline(e *engine.Engine, admit engine.Admitter, clf engine.Classifier, train []*engine.Message) {
	for _, m := range train {
		if admit.Admit(m, true).Accept {
			clf.Learn(m, true)
		}
	}
	e.Swap(clf)
}

// waived publishes unguarded on purpose and says so; the directive
// also sanitizes it for waivedCaller below.
func waived(e *engine.Engine, clf engine.Classifier) {
	e.Swap(clf) //sbvet:unguarded fixture: the deliberately unguarded baseline arm
}

// waivedCaller is clean: the annotated site does not taint its
// function.
func waivedCaller(e *engine.Engine, clf engine.Classifier) {
	waived(e, clf)
}

// trainer is a deploy-declared abstraction over "something that can
// publish a classifier" — the shape a network front-end is tempted to
// introduce. Its known implementations are the raw Engine (a sink)
// and Guarded (a guard); the analyzer resolves the dispatch to the
// concrete sink, so wrapping the engine in a local interface does not
// launder the training path.
type trainer interface {
	Swap(clf engine.Classifier) uint64
}

// launderedSwap dispatches through the interface: still flagged,
// because one resolved implementation is Engine.Swap.
func launderedSwap(tr trainer, clf engine.Classifier) {
	tr.Swap(clf) // want `unvetted training path: call to \(deploy\.trainer\)\.Swap reaches \(\*internal/engine\.Engine\)\.Swap`
}

// launderedEntry sits a hop above the laundered dispatch and inherits
// its taint.
func launderedEntry(tr trainer, clf engine.Classifier) {
	launderedSwap(tr, clf) // want `unvetted training path: call to deploy\.launderedSwap reaches \(\*internal/engine\.Engine\)\.Swap`
}

// closureBuilder publishes inside a function literal; the call is
// attributed to this function, so the site is still flagged.
func closureBuilder(e *engine.Engine, clf engine.Classifier) {
	go func() {
		e.Swap(clf) // want `unvetted training path: direct call to \(\*internal/engine\.Engine\)\.Swap`
	}()
}
