package sbayes

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/mail"
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

// record holds per-token training counts: the number of spam and ham
// training messages that contained the token at least once.
type record struct {
	spam int32
	ham  int32
}

// Filter is the SpamBayes classifier: a token-count database plus the
// scoring rule. Statistics are keyed by interned token IDs: syms maps
// token text to a dense tokenize.Sym and recs is indexed by it, so the
// per-token state is a flat slice (cloned with one memcpy) instead of
// a string-keyed map rebuilt on every Clone. Not safe for concurrent
// mutation; concurrent Classify calls without interleaved Learn calls
// are safe.
type Filter struct {
	opts  Options
	tok   *tokenize.Tokenizer
	nspam int32
	nham  int32
	syms  *tokenize.Symbols
	recs  []record // indexed by tokenize.Sym; len(recs) == syms.Len()
	vocab int      // number of records with nonzero counts
}

// New returns an empty filter with the given options and tokenizer.
// A nil tokenizer selects tokenize.Default(). New panics on invalid
// options (programmer error).
func New(opts Options, tok *tokenize.Tokenizer) *Filter {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	if tok == nil {
		tok = tokenize.Default()
	}
	return &Filter{
		opts: opts,
		tok:  tok,
		syms: tokenize.NewSymbols(),
	}
}

// NewDefault returns an empty filter with SpamBayes defaults.
func NewDefault() *Filter { return New(DefaultOptions(), nil) }

// Options returns the filter's options.
func (f *Filter) Options() Options { return f.opts }

// Tokenizer returns the filter's tokenizer.
func (f *Filter) Tokenizer() *tokenize.Tokenizer { return f.tok }

// Counts returns the number of spam and ham messages trained.
func (f *Filter) Counts() (nspam, nham int) {
	return int(f.nspam), int(f.nham)
}

// VocabSize returns the number of distinct tokens in the database.
// Maintained on zero↔nonzero count transitions, so it is O(1) even
// though unlearned-to-zero tokens keep their interned IDs.
func (f *Filter) VocabSize() int { return f.vocab }

// recordFor returns the training counts of a token (zero if never
// interned or unlearned back to zero).
func (f *Filter) recordFor(token string) record {
	if id, ok := f.syms.Lookup(token); ok {
		return f.recs[id]
	}
	return record{}
}

// TokenCounts returns the raw training counts of a token.
func (f *Filter) TokenCounts(token string) (spam, ham int) {
	r := f.recordFor(token)
	return int(r.spam), int(r.ham)
}

// intern assigns (or finds) the token's dense ID and keeps recs in
// step with the symbol table.
func (f *Filter) intern(token string) tokenize.Sym {
	id := f.syms.Intern(token)
	if int(id) == len(f.recs) {
		f.recs = append(f.recs, record{})
	}
	return id
}

// addCounts adjusts one record by a signed delta, maintaining the
// vocab counter across zero↔nonzero transitions.
func (f *Filter) addCounts(id tokenize.Sym, isSpam bool, w int32) {
	r := &f.recs[id]
	wasZero := r.spam == 0 && r.ham == 0
	if isSpam {
		r.spam += w
	} else {
		r.ham += w
	}
	isZero := r.spam == 0 && r.ham == 0
	if wasZero && !isZero {
		f.vocab++
	} else if !wasZero && isZero {
		f.vocab--
	}
}

// Learn trains the filter on one message with the given label.
func (f *Filter) Learn(m *mail.Message, isSpam bool) {
	f.LearnTokenStream(f.tok.Stream(m), isSpam, 1)
}

// LearnWeighted trains the filter as if weight identical copies of the
// message were trained. Token presence is per message, so this is
// exactly equivalent to calling Learn weight times — the attack
// experiments use it to train hundreds of identical attack emails in
// one pass. It panics if weight < 0.
func (f *Filter) LearnWeighted(m *mail.Message, isSpam bool, weight int) {
	f.LearnTokenStream(f.tok.Stream(m), isSpam, weight)
}

// LearnTokenStream trains directly on a tokenized message. Training is
// per-message token presence, so the stream's occurrence counts are
// ignored — each distinct token counts once per weighted copy.
func (f *Filter) LearnTokenStream(ts *tokenize.TokenStream, isSpam bool, weight int) {
	if weight < 0 {
		panic("sbayes: negative learn weight")
	}
	if weight == 0 {
		return
	}
	w := int32(weight)
	if isSpam {
		f.nspam += w
	} else {
		f.nham += w
	}
	for i := 0; i < ts.Len(); i++ {
		f.addCounts(f.intern(string(ts.At(i))), isSpam, w)
	}
}

// Unlearn removes one previously trained message from the database.
// It returns an error (leaving the filter unchanged) if the message
// was not counted with this label, as far as the counts can tell.
func (f *Filter) Unlearn(m *mail.Message, isSpam bool) error {
	return f.UnlearnTokenStream(f.tok.Stream(m), isSpam, 1)
}

// UnlearnTokenStream is the inverse of LearnTokenStream. It validates
// every count before mutating anything, so a failed unlearn leaves the
// filter untouched.
func (f *Filter) UnlearnTokenStream(ts *tokenize.TokenStream, isSpam bool, weight int) error {
	if weight < 0 {
		panic("sbayes: negative unlearn weight")
	}
	if weight == 0 {
		return nil
	}
	w := int32(weight)
	if isSpam && f.nspam < w {
		return fmt.Errorf("sbayes: unlearn spam underflow (have %d, remove %d)", f.nspam, w)
	}
	if !isSpam && f.nham < w {
		return fmt.Errorf("sbayes: unlearn ham underflow (have %d, remove %d)", f.nham, w)
	}
	for i := 0; i < ts.Len(); i++ {
		r := f.recordFor(string(ts.At(i)))
		if isSpam && r.spam < w || !isSpam && r.ham < w {
			return fmt.Errorf("sbayes: unlearn underflow on token %q", ts.At(i))
		}
	}
	if isSpam {
		f.nspam -= w
	} else {
		f.nham -= w
	}
	for i := 0; i < ts.Len(); i++ {
		// Validation proved every token is interned with count ≥ w.
		id, _ := f.syms.LookupToken(ts.At(i))
		f.addCounts(id, isSpam, -w)
	}
	return nil
}

// Clone returns an independent deep copy of the filter: the symbol
// table clones copy-on-write (O(1)) and the flat record slice copies
// with one memcpy. Experiments use it to branch a poisoned filter off
// a shared clean baseline; the engine uses it for snapshot retrains.
func (f *Filter) Clone() *Filter {
	return &Filter{
		opts:  f.opts,
		tok:   f.tok,
		nspam: f.nspam,
		nham:  f.nham,
		syms:  f.syms.Clone(),
		recs:  append(make([]record, 0, len(f.recs)), f.recs...),
		vocab: f.vocab,
	}
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

// Tokens returns all tokens with nonzero counts in sorted order.
// Intended for persistence and debugging; O(V log V).
func (f *Filter) Tokens() []string {
	out := make([]string, 0, f.vocab)
	for id, r := range f.recs {
		if r.spam != 0 || r.ham != 0 {
			out = append(out, f.syms.Name(tokenize.Sym(id)))
		}
	}
	sort.Strings(out)
	return out
}
