package sbayes

import (
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/mail"
	"repro/internal/stats"
	"repro/internal/tokenize"
)

// TokenScore returns f(w), the Robinson-smoothed spam score of a
// token (equations 1–2). Unseen tokens score exactly the prior x.
func (f *Filter) TokenScore(token string) float64 {
	return f.scoreRecord(f.recordFor(token))
}

// scoreRecord computes f(w) from raw counts.
func (f *Filter) scoreRecord(r record) float64 {
	return f.scoreCounts(r, f.nspam, f.nham)
}

// scoreCounts computes f(w) from raw counts against the given
// trained-message totals, so a bound validation set can score as if
// one more message had been learned without mutating the filter.
func (f *Filter) scoreCounts(r record, nspam, nham int32) float64 {
	// Clamp counts to the totals, as SpamBayes does, so a corrupt
	// database cannot yield ratios above 1.
	spamcount := min(r.spam, nspam)
	hamcount := min(r.ham, nham)
	var spamratio, hamratio float64
	if nspam > 0 {
		spamratio = float64(spamcount) / float64(nspam)
	}
	if nham > 0 {
		hamratio = float64(hamcount) / float64(nham)
	}
	x := f.opts.UnknownWordProb
	denom := spamratio + hamratio
	if denom == 0 {
		return x
	}
	prob := spamratio / denom // PS(w), equation 1
	n := float64(spamcount + hamcount)
	s := f.opts.UnknownWordStrength
	return (s*x + n*prob) / (s + n) // f(w), equation 2
}

// Clue is one token's contribution to a classification, reported by
// Explain and used to draw the Figure 4 scatter plots.
type Clue struct {
	Token string
	Score float64 // f(w)
	Used  bool    // whether the token made it into δ(E)
}

// Score returns the message score I(E) ∈ [0, 1] (equation 3).
func (f *Filter) Score(m *mail.Message) float64 {
	return f.ScoreTokenStream(f.tok.Stream(m))
}

// Classify returns the verdict and score for a message.
func (f *Filter) Classify(m *mail.Message) (Label, float64) {
	s := f.Score(m)
	return f.opts.LabelFor(s), s
}

// ScoreTokenStream computes I(E) over a tokenized message. Token
// presence drives the score, so the stream's occurrence counts are
// irrelevant here. This is the serving hot path: stream tokens resolve
// through Symbols.LookupToken and the candidate clues are ranked in a
// pooled buffer, so scoring allocates nothing per message.
func (f *Filter) ScoreTokenStream(ts *tokenize.TokenStream) float64 {
	sc := getClues()
	defer putClues(sc)
	for i := 0; i < ts.Len(); i++ {
		sc.c = f.appendClue(sc.c, string(ts.At(i)))
	}
	return f.combine(f.rank(sc.c))
}

// ClassifyTokenStream is Classify over a tokenized message.
func (f *Filter) ClassifyTokenStream(ts *tokenize.TokenStream) (Label, float64) {
	s := f.ScoreTokenStream(ts)
	return f.opts.LabelFor(s), s
}

// Explain returns every distinct token's score and whether it entered
// δ(E), in the message's token order.
func (f *Filter) Explain(m *mail.Message) []Clue {
	ts := f.tok.Stream(m)
	cands := make([]clue, 0, ts.Len())
	for i := 0; i < ts.Len(); i++ {
		cands = f.appendClue(cands, string(ts.At(i)))
	}
	used := map[string]bool{}
	for _, c := range f.rank(cands) {
		used[c.token] = true
	}
	out := make([]Clue, ts.Len())
	for i := range out {
		t := string(ts.At(i))
		out[i] = Clue{Token: t, Score: f.TokenScore(t), Used: used[t]}
	}
	return out
}

// clue pairs a token with its score during discriminator selection.
type clue struct {
	token string
	score float64
	dist  float64
}

// compareClues orders clues by descending distance from 0.5, then
// descending score, then token text. Stream tokens are distinct, so
// the order is total and every correct sort yields the same sequence —
// which matters, because combine sums logarithms in this order.
func compareClues(a, b clue) int {
	if c := compareStrength(a.dist, a.score, b.dist, b.score); c != 0 {
		return c
	}
	return strings.Compare(a.token, b.token)
}

// compareStrength is the numeric part of the clue order. The bound
// validation path ranks clues by it alone: it ranks groups of
// equal-scoring tokens, which add equal logarithms whatever their text.
func compareStrength(adist, ascore, bdist, bscore float64) int {
	switch {
	case adist > bdist:
		return -1
	case adist < bdist:
		return 1
	case ascore > bscore:
		return -1
	case ascore < bscore:
		return 1
	}
	return 0
}

// appendClue scores one token and appends it if it clears the
// MinProbStrength band around 0.5.
func (f *Filter) appendClue(cands []clue, token string) []clue {
	s := f.scoreRecord(f.recordFor(token))
	d := math.Abs(s - 0.5)
	if d >= f.opts.MinProbStrength {
		cands = append(cands, clue{token: token, score: s, dist: d})
	}
	return cands
}

// rank computes δ(E) from the candidate clues: the at most
// MaxDiscriminators tokens whose scores are furthest from 0.5, in
// compareClues order, so the result is deterministic regardless of
// input order.
func (f *Filter) rank(cands []clue) []clue {
	slices.SortFunc(cands, compareClues)
	if len(cands) > f.opts.MaxDiscriminators {
		cands = cands[:f.opts.MaxDiscriminators]
	}
	return cands
}

// combine applies Fisher's method to the selected clues (equations
// 3–4, implemented as in SpamBayes' chi2_spamprob).
func (f *Filter) combine(clues []clue) float64 {
	var lnF, lnNotF float64
	for _, c := range clues {
		lf, lnf := clueLogs(c.score)
		lnF += lf
		lnNotF += lnf
	}
	return fisher(lnF, lnNotF, len(clues))
}

// clueLogs returns ln f(w) and ln(1 − f(w)) for one selected clue.
// Scores of exactly 0 or 1 can only arise from degenerate option
// choices, but the logarithms are guarded anyway.
func clueLogs(s float64) (lnF, lnNotF float64) {
	if s < 1e-300 {
		s = 1e-300
	}
	if s > 1-1e-15 {
		s = 1 - 1e-15
	}
	return math.Log(s), math.Log(1 - s)
}

// fisher maps the summed logarithms of n selected clues to I(E): H
// accumulates evidence of hamminess from Σ ln f(w), S from
// Σ ln(1 − f(w)), each mapped through the chi-square survival function
// with 2n degrees of freedom, and the final score is (1 + H − S)/2 in
// the paper's notation (eq. 4): H(E) = Q(−2 Σ ln f, 2n) is large when
// tokens look spammy, S(E) = Q(−2 Σ ln(1−f), 2n) when they look hammy.
// With no usable clues the score is exactly 0.5.
func fisher(lnF, lnNotF float64, n int) float64 {
	if n == 0 {
		return 0.5
	}
	H := stats.ChiSquareQ(-2*lnF, 2*n)
	S := stats.ChiSquareQ(-2*lnNotF, 2*n)
	return (1 + H - S) / 2
}

// clueScratch is a pooled candidate buffer, so ranking a message's
// clues allocates nothing once the pool is warm.
type clueScratch struct{ c []clue }

// Pooled buffers larger than this are dropped rather than recycled, so
// one huge message (a dictionary attack) cannot pin its clue buffer.
const maxPooledClues = 1 << 14

var cluePool = sync.Pool{New: func() any { return new(clueScratch) }}

func getClues() *clueScratch { return cluePool.Get().(*clueScratch) }

func putClues(sc *clueScratch) {
	if cap(sc.c) > maxPooledClues {
		return
	}
	clear(sc.c) // drop token views so old stream arenas can be collected
	sc.c = sc.c[:0]
	cluePool.Put(sc)
}
