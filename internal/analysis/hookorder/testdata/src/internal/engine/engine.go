// Package engine is a fixture mirror of the publish path: the Engine
// and Guarded publish surface, and the Config struct carrying the
// PrePublish/PostPublish hook slices.
package engine

// Message stands in for mail.Message.
type Message struct{ Body string }

// Classifier is the backend contract.
type Classifier interface {
	Learn(m *Message, spam bool)
}

// Config carries the publish hooks.
type Config struct {
	// PrePublish hooks run on each replacement before it is published.
	PrePublish []func(next Classifier) error
	// PostPublish hooks run once after each publish.
	PostPublish []func()
}

// Engine serves a classifier.
type Engine struct{ clf Classifier }

// Swap publishes a replacement.
func (e *Engine) Swap(clf Classifier) uint64 {
	e.clf = clf
	return 1
}

// Guarded wraps an Engine with hooks.
type Guarded struct {
	eng *Engine
	cfg Config
}

// NewGuarded wraps e with cfg.
func NewGuarded(e *Engine, cfg Config) *Guarded {
	return &Guarded{eng: e, cfg: cfg}
}

// publish runs the PrePublish hooks, installs clf, then runs the
// PostPublish hooks — the mechanism hookorder protects.
func (g *Guarded) publish(clf Classifier) (uint64, error) {
	for _, hook := range g.cfg.PrePublish {
		if err := hook(clf); err != nil {
			return 0, err
		}
	}
	gen := g.eng.Swap(clf)
	for _, hook := range g.cfg.PostPublish {
		hook()
	}
	return gen, nil
}

// Swap publishes through the hooks.
func (g *Guarded) Swap(clf Classifier) (uint64, error) { return g.publish(clf) }

// RetrainIncremental trains the new examples and publishes through the
// hooks.
func (g *Guarded) RetrainIncremental(train []*Message) (uint64, error) {
	for _, m := range train {
		g.eng.clf.Learn(m, true)
	}
	return g.publish(g.eng.clf)
}
