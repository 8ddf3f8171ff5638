// Fixture for an allowlisted consumer: internal/eval owns the
// pre-tokenization (tokenize-once) pattern, so its direct calls are
// sanctioned and must produce no diagnostics.
package eval

import "internal/tokenize"

// StreamCorpus pre-tokenizes once so downstream scoring never
// re-tokenizes — the pattern the analyzer exists to protect.
func StreamCorpus(tok *tokenize.Tokenizer, msgs []string) []*tokenize.TokenStream {
	out := make([]*tokenize.TokenStream, len(msgs))
	for i, m := range msgs {
		out[i] = tok.Stream(m)
	}
	return out
}
