// Package engine is a fixture mirror of the real serving layer: the
// Engine training surface (sinks), the Guarded wrapper and Admitter
// contract (guards), and a backend Classifier interface. Its path ends
// in internal/engine, so it is an owner package — nothing in here is
// diagnosed even though it trains freely.
package engine

// Message stands in for mail.Message.
type Message struct{ Body string }

// Decision is an admission outcome.
type Decision struct{ Accept bool }

// Admitter vets training candidates.
type Admitter interface {
	Admit(m *Message, spam bool) Decision
}

// TokenStream stands in for tokenize.TokenStream.
type TokenStream struct{ Tokens []string }

// Classifier is the backend contract; Learn, LearnWeighted and
// LearnTokenStream are backend-level sinks.
type Classifier interface {
	Learn(m *Message, spam bool)
	LearnWeighted(m *Message, spam bool, weight int)
	LearnTokenStream(ts *TokenStream, spam bool, weight int)
}

// Engine serves a classifier; Swap, its one raw publish, is the
// engine-level sink.
type Engine struct{ clf Classifier }

// Swap publishes a replacement.
func (e *Engine) Swap(clf Classifier) uint64 {
	e.clf = clf
	return 1
}

// Guarded wraps an Engine with admission control; its methods are
// guards — calling them is the sanctioned training path.
type Guarded struct {
	eng   *Engine
	admit Admitter
}

// NewGuarded wraps e.
func NewGuarded(e *Engine, admit Admitter) *Guarded {
	return &Guarded{eng: e, admit: admit}
}

// Vet runs one candidate through the admitter.
func (g *Guarded) Vet(m *Message, spam bool) Decision { return g.admit.Admit(m, spam) }

// RetrainIncremental vets, trains what it admitted and publishes.
// Owner package: not diagnosed here.
func (g *Guarded) RetrainIncremental(train []*Message) uint64 {
	for _, m := range train {
		if g.admit.Admit(m, true).Accept {
			g.eng.clf.Learn(m, true)
		}
	}
	return g.eng.Swap(g.eng.clf)
}

// Swap publishes through the hooks.
func (g *Guarded) Swap(clf Classifier) uint64 { return g.eng.Swap(clf) }
