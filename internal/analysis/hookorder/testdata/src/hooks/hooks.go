// Package hooks registers publish hooks: the checked surface of the
// hookorder fixture. Literal hooks are flagged at the offending call,
// named hooks at the registration site, and the cross-package leg
// flags a hook whose publish call is two packages away.
package hooks

import (
	"internal/engine"

	"pubutil"
)

var gg *engine.Guarded

// setupLiteral registers a literal PrePublish hook that swaps — the
// deadlock in miniature — next to a clean one that only inspects.
func setupLiteral(e *engine.Engine) *engine.Guarded {
	cfg := engine.Config{
		PrePublish: []func(engine.Classifier) error{
			func(next engine.Classifier) error {
				_, err := gg.Swap(next) // want `publish hook re-enters the publish path: calls \(\*internal/engine\.Guarded\)\.Swap`
				return err
			},
			func(next engine.Classifier) error {
				pubutil.Audit(gg)
				return nil
			},
		},
	}
	return engine.NewGuarded(e, cfg)
}

// refresh retrains through the guard; fine as a function, fatal as a
// hook.
func refresh() {
	gg.RetrainIncremental(nil)
}

// audit is publish-free.
func audit() {
	pubutil.Audit(gg)
}

// wrapper publishes two hops away: wrapper -> pubutil.RebuildAndPublish
// -> Guarded.RetrainIncremental, joined by the exported publishesFact.
func wrapper() {
	pubutil.RebuildAndPublish(gg, nil)
}

// setupNamed registers named hooks: the publishing ones are flagged at
// the registration site, the clean one is not.
func setupNamed(cfg *engine.Config) {
	cfg.PostPublish = append(cfg.PostPublish, refresh) // want `publish hook re-enters the publish path: hooks\.refresh reaches \(\*internal/engine\.Guarded\)\.RetrainIncremental`
	cfg.PostPublish = append(cfg.PostPublish, audit)
	cfg.PostPublish = append(cfg.PostPublish, wrapper) // want `publish hook re-enters the publish path: hooks\.wrapper reaches \(\*internal/engine\.Guarded\)\.RetrainIncremental`
}

// setupWaived registers a deliberately re-entrant hook and says so;
// the directive waives both forms.
func setupWaived(cfg *engine.Config) {
	//sbvet:reentrant fixture: deliberate re-entrancy under test
	cfg.PostPublish = append(cfg.PostPublish, refresh)
	cfg.PrePublish = append(cfg.PrePublish, func(next engine.Classifier) error {
		_, err := gg.Swap(next) //sbvet:reentrant fixture: deliberate re-entrancy under test
		return err
	})
}
