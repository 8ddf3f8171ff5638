package sbayes

import (
	"repro/internal/engine"
	"repro/internal/tokendb"
	"repro/internal/tokenize"
)

// Filter satisfies the backend-generic contract.
var _ engine.Classifier = (*Filter)(nil)

func init() {
	engine.Register(engine.Backend{
		Name: "sbayes",
		Doc:  "SpamBayes learner: Robinson token scores, Fisher chi-square combining, ham/unsure/spam verdicts",
		New:  func() engine.Classifier { return NewDefault() },
	})
}

// Filter is the SpamBayes classifier: the token-count database both
// learners share, counting each token once per trained message (so a
// record's spam and ham counts are the spam and ham training messages
// that contained it), plus the scoring rule. The database supplies the
// learners, Counts, VocabSize, TokenCounts and Tokens. Not safe for
// concurrent mutation; concurrent Classify calls without interleaved
// Learn calls are safe.
type Filter struct {
	tokendb.DB
	opts Options
}

// New returns an empty filter with the given options and tokenizer.
// A nil tokenizer selects tokenize.Default(). New panics on invalid
// options (programmer error).
func New(opts Options, tok *tokenize.Tokenizer) *Filter {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	return &Filter{DB: tokendb.New("sbayes", tok, tokendb.Presence), opts: opts}
}

// NewDefault returns an empty filter with SpamBayes defaults.
func NewDefault() *Filter { return New(DefaultOptions(), nil) }

// Options returns the filter's options.
func (f *Filter) Options() Options { return f.opts }

// Clone returns an independent deep copy of the filter: the symbol
// table clones copy-on-write (O(1)) and the flat record slice copies
// with one memcpy. Experiments use it to branch a poisoned filter off
// a shared clean baseline; the engine uses it for snapshot retrains.
func (f *Filter) Clone() *Filter {
	return &Filter{DB: f.DB.Clone(), opts: f.opts}
}

// CloneClassifier is Clone behind the engine.Cloner part of the
// contract, for interface-typed callers such as
// Guarded.RetrainIncremental.
func (f *Filter) CloneClassifier() engine.Classifier { return f.Clone() }

// SetThresholds replaces θ0 and θ1, as the dynamic threshold defense
// does after fitting them on validation data. It returns an error on
// an invalid pair.
func (f *Filter) SetThresholds(hamCutoff, spamCutoff float64) error {
	opts := f.opts
	opts.HamCutoff, opts.SpamCutoff = hamCutoff, spamCutoff
	if err := opts.Validate(); err != nil {
		return err
	}
	f.opts = opts
	return nil
}
