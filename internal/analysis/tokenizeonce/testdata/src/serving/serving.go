// Fixture for a fenced consumer: a serving-path package that is not
// on the allowlist. Direct tokenizer calls here are the
// double-tokenize creep the analyzer blocks.
package serving

import "internal/tokenize"

// Score re-tokenizes at score time — the BENCH_PR3 hot-path bug
// class.
func Score(tok *tokenize.Tokenizer, m string) *tokenize.TokenStream {
	return tok.Stream(m) // want `direct call to \(\*tokenize\.Tokenizer\)\.Stream outside the tokenization layer`
}

// DerivedFact asks the tokenize package for a fact about the message
// instead of tokenizing — the sanctioned alternative.
func DerivedFact(tok *tokenize.Tokenizer, m string) int {
	return tok.DistinctCount(m)
}

// OtherStream calls a Stream method that is not the tokenizer's.
func OtherStream(p tokenize.Pipeline, m string) int {
	return p.Stream(m)
}

// Waived shows the escape hatch: an annotated intentional call.
func Waived(tok *tokenize.Tokenizer, m string) *tokenize.TokenStream {
	//sbvet:retokenize fixture: exhibit code inspects tokens once, off the hot path
	return tok.Stream(m)
}
