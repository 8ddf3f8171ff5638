// Package graham implements Paul Graham's "A Plan for Spam" (2002)
// classifier — reference [7] of the paper and the direct ancestor of
// the Robinson/Fisher method SpamBayes uses (§2.3 cites Robinson's
// scheme as "based on ideas by Graham"). It serves as the baseline
// learner: the attacks poison it through exactly the same mechanism
// (token spam counts), so the repository can show the vulnerability
// is a property of the statistical approach, not of one combining
// rule.
//
// Both learners embed one token-count database (internal/tokendb), so
// training, unlearning, cloning and the shared codec are the same code;
// this package adds the scoring rule, its validation sets and the GRDB
// format. Differences from the SpamBayes learner, per Graham's essay:
//
//   - token occurrences count with multiplicity, and ham counts are
//     doubled ("to bias the probabilities slightly against false
//     positives");
//   - tokens seen fewer than five times score a fixed 0.4;
//   - known-token scores clamp to [0.01, 0.99];
//   - the fifteen most interesting tokens (furthest from 0.5) combine
//     by naive Bayes product: Πp / (Πp + Π(1−p));
//   - the verdict is binary — spam above 0.9, ham otherwise (no
//     unsure band).
//
// Measured finding (TestDictionaryAttackPoisonsGraham): the
// dictionary attack transfers to this baseline but needs roughly an
// order of magnitude more attack volume than against SpamBayes — the
// hard clamps and the 15-token cap let a handful of surviving
// pure-ham tokens veto a large poisoned majority, where SpamBayes'
// 150-token chi-square combination lets the poisoned mass win.
package graham

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/mail"
	"repro/internal/tokendb"
	"repro/internal/tokenize"
)

// Filter satisfies the backend-generic contract. Graham counts token
// occurrences with multiplicity, which a tokenize.TokenStream carries
// per distinct token, so stream training recovers exactly what an
// occurrence walk over the raw message would read.
var _ engine.Classifier = (*Filter)(nil)

func init() {
	engine.Register(engine.Backend{
		Name: "graham",
		Doc:  "Graham (2002) baseline: clamped naive-Bayes over the 15 most interesting tokens, binary verdict",
		New:  func() engine.Classifier { return NewDefault() },
	})
}

// Options holds Graham's tunables (defaults are the essay's values).
type Options struct {
	// UnknownProb is the score of rarely seen tokens (0.4).
	UnknownProb float64
	// MinOccurrences is the evidence floor below which a token is
	// treated as unknown (5).
	MinOccurrences int
	// MaxTokens is the number of most-interesting tokens combined
	// (15).
	MaxTokens int
	// HamWeight multiplies ham occurrence counts (2).
	HamWeight int
	// ClampLow and ClampHigh bound known-token scores (0.01, 0.99).
	ClampLow  float64
	ClampHigh float64
	// SpamCutoff is the binary decision threshold (0.9).
	SpamCutoff float64
}

// DefaultOptions returns the essay's parameters.
func DefaultOptions() Options {
	return Options{
		UnknownProb:    0.4,
		MinOccurrences: 5,
		MaxTokens:      15,
		HamWeight:      2,
		ClampLow:       0.01,
		ClampHigh:      0.99,
		SpamCutoff:     0.9,
	}
}

// Validate checks option consistency.
func (o Options) Validate() error {
	switch {
	case o.UnknownProb <= 0 || o.UnknownProb >= 1:
		return fmt.Errorf("graham: UnknownProb %v", o.UnknownProb)
	case o.MinOccurrences < 1:
		return fmt.Errorf("graham: MinOccurrences %d", o.MinOccurrences)
	case o.MaxTokens < 1:
		return fmt.Errorf("graham: MaxTokens %d", o.MaxTokens)
	case o.HamWeight < 1:
		return fmt.Errorf("graham: HamWeight %d", o.HamWeight)
	case o.ClampLow <= 0 || o.ClampHigh >= 1 || o.ClampLow >= o.ClampHigh:
		return fmt.Errorf("graham: clamps (%v, %v)", o.ClampLow, o.ClampHigh)
	case o.SpamCutoff <= 0 || o.SpamCutoff >= 1:
		return fmt.Errorf("graham: SpamCutoff %v", o.SpamCutoff)
	}
	return nil
}

// Filter is the Graham classifier: the token-count database both
// learners share, counting every occurrence of a token (with
// multiplicity, where SpamBayes counts presence per message), plus the
// scoring rule. The database supplies the learners, Counts, VocabSize,
// TokenCounts and Tokens; a record's Ham and Spam are Graham's good
// and bad occurrence counts.
type Filter struct {
	tokendb.DB
	opts Options
}

// New returns an empty filter (nil tokenizer selects the default).
// It panics on invalid options.
func New(opts Options, tok *tokenize.Tokenizer) *Filter {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	return &Filter{DB: tokendb.New("graham", tok, tokendb.Occurrences), opts: opts}
}

// NewDefault returns an empty filter with essay defaults.
func NewDefault() *Filter { return New(DefaultOptions(), nil) }

// Options returns the filter's options.
func (f *Filter) Options() Options { return f.opts }

// Clone returns an independent deep copy of the filter: the symbol
// table clones copy-on-write (O(1)) and the record slice copies with
// one memcpy.
func (f *Filter) Clone() *Filter {
	return &Filter{DB: f.DB.Clone(), opts: f.opts}
}

// CloneClassifier is Clone behind the engine.Cloner part of the
// contract, for interface-typed callers such as
// Guarded.RetrainIncremental.
func (f *Filter) CloneClassifier() engine.Classifier { return f.Clone() }

// SetThresholds replaces the binary decision cutoff, the
// engine.ThresholdSetter part of the contract the dynamic-threshold
// defense refits through. Graham's rule has no unsure band, so only
// the spam cutoff (θ1) is installed; hamCutoff is accepted for
// interface uniformity and validated (it must not exceed spamCutoff)
// but otherwise unused. The fit domain is the closed [0, 1]: a degenerate
// calibration can legitimately fit θ1 = 1 ("never spam") or 0, and a
// refit must be able to install it rather than abort the publish.
func (f *Filter) SetThresholds(hamCutoff, spamCutoff float64) error {
	if spamCutoff < 0 || spamCutoff > 1 {
		return fmt.Errorf("graham: SetThresholds spam cutoff %v outside [0,1]", spamCutoff)
	}
	if hamCutoff > spamCutoff {
		return fmt.Errorf("graham: SetThresholds ham cutoff %v above spam cutoff %v", hamCutoff, spamCutoff)
	}
	f.opts.SpamCutoff = spamCutoff
	return nil
}

// TokenProb returns Graham's per-token spam probability.
func (f *Filter) TokenProb(token string) float64 {
	nbad, ngood := f.Counts()
	r := f.Lookup(token)
	return f.prob(int(r.Ham), int(r.Spam), ngood, nbad)
}

// prob computes the clamped probability from raw good/bad occurrence
// counts and the trained message totals.
func (f *Filter) prob(good, bad, ngood, nbad int) float64 {
	g := f.opts.HamWeight * good
	if g+bad < f.opts.MinOccurrences {
		return f.opts.UnknownProb
	}
	var gRatio, bRatio float64
	if ngood > 0 {
		gRatio = math.Min(1, float64(g)/float64(ngood))
	}
	if nbad > 0 {
		bRatio = math.Min(1, float64(bad)/float64(nbad))
	}
	if gRatio+bRatio == 0 {
		return f.opts.UnknownProb
	}
	p := bRatio / (gRatio + bRatio)
	return math.Max(f.opts.ClampLow, math.Min(f.opts.ClampHigh, p))
}

// cand pairs a token with its probability during selection of the
// most interesting tokens.
type cand struct {
	p    float64
	dist float64
	tok  string
}

// candLess is the interestingness order of the selection path
// (ScoreTokenStream): descending distance from 0.5, ties broken by
// token text. Stream tokens are distinct, so the order is total.
func candLess(a, b cand) bool {
	if a.dist != b.dist {
		return a.dist > b.dist
	}
	return a.tok < b.tok
}

// insertCand inserts c into sel, kept in candLess order and capped at
// k entries — a bounded insertion-sort selection. With k fixed at
// MaxTokens the per-message cost is O(n·k) comparisons and zero
// allocations, where sorting every candidate and truncating would
// build and sort an n-sized slice.
func insertCand(sel []cand, k int, c cand) []cand {
	if len(sel) == k && !candLess(c, sel[k-1]) {
		return sel
	}
	i := len(sel)
	if i < k {
		sel = append(sel, cand{})
	} else {
		i = k - 1
	}
	for i > 0 && candLess(c, sel[i-1]) {
		sel[i] = sel[i-1]
		i--
	}
	sel[i] = c
	return sel
}

// Score returns the combined spam probability of a message.
func (f *Filter) Score(m *mail.Message) float64 {
	return f.ScoreTokenStream(f.Tokenizer().Stream(m))
}

// maxTokensStack bounds the MaxTokens value the stream scoring path
// can select into a stack buffer; larger configurations fall back to
// one heap slice per message (still far below sorting all n candidates).
const maxTokensStack = 32

// ScoreTokenStream computes the combined spam probability over a
// tokenized message. Scoring is per token presence, so the stream's
// occurrence counts are irrelevant here. This is the serving hot path:
// token probabilities resolve through the Sym-keyed fast path and the
// MaxTokens most interesting candidates are selected into a
// fixed-capacity buffer, so scoring allocates nothing per message.
func (f *Filter) ScoreTokenStream(ts *tokenize.TokenStream) float64 {
	n := ts.Len()
	if n == 0 {
		return f.opts.UnknownProb
	}
	k := f.opts.MaxTokens
	var buf [maxTokensStack]cand
	sel := buf[:0]
	if k > maxTokensStack {
		sel = make([]cand, 0, k)
	}
	nbad, ngood := f.Counts()
	for i := 0; i < n; i++ {
		// A stream Token is a string type, so the lookup builds no
		// per-token heap string.
		tok := string(ts.At(i))
		r := f.Lookup(tok)
		p := f.prob(int(r.Ham), int(r.Spam), ngood, nbad)
		sel = insertCand(sel, k, cand{p: p, dist: math.Abs(p - 0.5), tok: tok})
	}
	return bayesProduct(sel)
}

// bayesProduct takes the naive Bayes product of the selected
// candidates in log space for stability: Πp / (Πp + Π(1−p)).
func bayesProduct(cands []cand) float64 {
	var logP, logNotP float64
	for _, c := range cands {
		logP += math.Log(c.p)
		logNotP += math.Log(1 - c.p)
	}
	// prob = e^logP / (e^logP + e^logNotP), computed stably.
	diff := logNotP - logP
	if diff > 700 {
		return 0
	}
	if diff < -700 {
		return 1
	}
	return 1 / (1 + math.Exp(diff))
}

// IsSpam returns the binary verdict and the combined probability.
func (f *Filter) IsSpam(m *mail.Message) (bool, float64) {
	s := f.Score(m)
	return s > f.opts.SpamCutoff, s
}

// Classify returns the backend-generic verdict and score. Graham's
// rule is binary, so the verdict is never Unsure.
func (f *Filter) Classify(m *mail.Message) (engine.Label, float64) {
	return f.labelFor(f.Score(m))
}

// ClassifyTokenStream is Classify over a tokenized message.
func (f *Filter) ClassifyTokenStream(ts *tokenize.TokenStream) (engine.Label, float64) {
	return f.labelFor(f.ScoreTokenStream(ts))
}

func (f *Filter) labelFor(s float64) (engine.Label, float64) {
	if s > f.opts.SpamCutoff {
		return engine.Spam, s
	}
	return engine.Ham, s
}
