// Package tokenize implements the SpamBayes email tokenizer used by
// the learner in internal/sbayes.
//
// The paper (footnote 1) observes that the main difference between the
// learning elements of SpamBayes, BogoFilter and SpamAssassin is the
// tokenization method, so the tokenizer is kept separate from the
// learner and fully configurable. The default configuration follows
// the SpamBayes tokenizer:
//
//   - the body is lowercased and split on whitespace;
//   - words of 3–12 characters are kept verbatim (punctuation and all,
//     exactly as SpamBayes does);
//   - longer words yield a "skip:<first char> <length bucket>" token,
//     except embedded email addresses, which split into
//     "email name:"/"email addr:" tokens;
//   - URLs yield "proto:" and "url:" tokens for the scheme and host
//     pieces;
//   - selected header fields are tokenized with a field prefix
//     ("subject:report", "from:addr:enron", "x-mailer:outlook", ...).
//
// The entry point is Stream, which walks a message once and returns a
// TokenStream: each distinct token once, in first-appearance order,
// with its occurrence count. Token multiplicity is irrelevant to the
// SpamBayes learner (the paper models messages as indicator vectors),
// which reads only the distinct tokens; Graham's learner weighs the
// counts.
package tokenize

// Options configures a Tokenizer. The zero value is not useful;
// start from DefaultOptions.
type Options struct {
	// MinWordLen and MaxWordLen bound the body words kept verbatim
	// (SpamBayes: 3 and 12).
	MinWordLen int
	MaxWordLen int
	// SkipTokens controls whether out-of-range words generate
	// "skip:" summary tokens.
	SkipTokens bool
	// URLTokens controls whether http/https/www words generate
	// "proto:" and "url:" tokens.
	URLTokens bool
	// Headers enables header tokenization (prefixed tokens for the
	// fields listed in AddressFields, WordFields and Subject).
	Headers bool
	// MineReceived additionally tokenizes Received lines (off by
	// default in SpamBayes).
	MineReceived bool
}

// DefaultOptions returns the SpamBayes-equivalent configuration.
func DefaultOptions() Options {
	return Options{
		MinWordLen: 3,
		MaxWordLen: 12,
		SkipTokens: true,
		URLTokens:  true,
		Headers:    true,
	}
}

// addressFields are header fields tokenized as email addresses.
var addressFields = []string{"From", "To", "Cc", "Sender", "Reply-To"}

// wordFields are header fields tokenized as plain word lists.
var wordFields = []string{"X-Mailer", "Content-Type"}

// Tokenizer converts messages into token streams. It is immutable and
// safe for concurrent use.
type Tokenizer struct {
	opts Options
}

// New returns a Tokenizer with the given options.
func New(opts Options) *Tokenizer { return &Tokenizer{opts: opts} }

// Default returns a Tokenizer with DefaultOptions.
func Default() *Tokenizer { return New(DefaultOptions()) }

// Options returns the tokenizer's configuration.
func (t *Tokenizer) Options() Options { return t.opts }
