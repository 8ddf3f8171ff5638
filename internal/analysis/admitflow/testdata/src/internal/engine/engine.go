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

// Engine serves a classifier; its training methods are the
// engine-level sinks.
type Engine struct{ clf Classifier }

// Retrain rebuilds the serving classifier. Owner package: not
// diagnosed here.
func (e *Engine) Retrain(train []*Message) uint64 {
	for _, m := range train {
		e.clf.Learn(m, true)
	}
	return 1
}

// Swap publishes a replacement.
func (e *Engine) Swap(clf Classifier) uint64 {
	e.clf = clf
	return 1
}

// LearnStream opens a bulk-training stream.
func (e *Engine) LearnStream() chan<- *Message { return make(chan *Message) }

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

// Retrain vets then trains.
func (g *Guarded) Retrain(train []*Message) uint64 {
	var kept []*Message
	for _, m := range train {
		if g.admit.Admit(m, true).Accept {
			kept = append(kept, m)
		}
	}
	return g.eng.Retrain(kept)
}

// Swap publishes through the hooks.
func (g *Guarded) Swap(clf Classifier) uint64 { return g.eng.Swap(clf) }
