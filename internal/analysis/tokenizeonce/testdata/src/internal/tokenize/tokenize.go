// Fixture stand-in for the real tokenize package: same package name,
// same Tokenizer type and entry point, so the analyzer's type-based
// matching exercises the real shapes.
package tokenize

// Tokenizer mimics the real tokenizer.
type Tokenizer struct{}

// Default returns a tokenizer.
func Default() *Tokenizer { return &Tokenizer{} }

// TokenStream mimics the real interned stream.
type TokenStream struct{ toks []string }

// Stream is the tokenize-once entry point, fenced outside the
// allowlist.
func (t *Tokenizer) Stream(m string) *TokenStream { return &TokenStream{toks: []string{m}} }

// DistinctCount is a derived-fact helper: callers outside the layer
// ask for facts about tokens instead of tokenizing themselves. It may
// call Stream freely: the package owns tokenization.
func (t *Tokenizer) DistinctCount(m string) int { return len(t.Stream(m).toks) }

// Stream on another type is not the tokenizer's entry point.
type Pipeline struct{}

// Stream here is unrelated to tokenization.
func (Pipeline) Stream(m string) int { return len(m) }
