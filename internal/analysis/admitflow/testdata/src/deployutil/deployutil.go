// Package deployutil is a non-owner helper package: its exported
// Rebuild publishes a classifier it trained itself, so it both gets a
// diagnostic at the sink call and exports a trainsFact that flags its
// callers in other packages — the cross-package leg of the fixture.
package deployutil

import "internal/engine"

// Rebuild swaps a replacement into the serving engine with no
// admission guard; callers anywhere inherit the taint.
func Rebuild(e *engine.Engine, clf engine.Classifier) {
	e.Swap(clf) // want `unvetted training path: direct call to \(\*internal/engine\.Engine\)\.Swap`
}

// RebuildVetted is the guarded twin: it routes through Guarded, so
// neither this call nor its callers are flagged.
func RebuildVetted(g *engine.Guarded, train []*engine.Message) {
	g.RetrainIncremental(train)
}

// InjectAnnotated trains deliberately — the demonstration-attack
// pattern — and says so; the directive sanitizes it for callers.
func InjectAnnotated(clf engine.Classifier, m *engine.Message) {
	//sbvet:unguarded fixture: deliberate poison injection, the attack being demonstrated
	clf.Learn(m, false)
}
