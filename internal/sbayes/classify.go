package sbayes

import (
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/mail"
	"repro/internal/stats"
	"repro/internal/tokendb"
	"repro/internal/tokenize"
)

// TokenScore returns f(w), the Robinson-smoothed spam score of a
// token (equations 1–2). Unseen tokens score exactly the prior x.
func (f *Filter) TokenScore(token string) float64 {
	nspam, nham := f.totals()
	return f.scoreCounts(f.Lookup(token), nspam, nham)
}

// totals returns the trained-message counts at a record's int32 width.
func (f *Filter) totals() (nspam, nham int32) {
	ns, nh := f.Counts()
	return int32(ns), int32(nh)
}

// scoreCounts computes f(w) from raw counts against the given
// trained-message totals, so a bound validation set can score as if
// one more message had been learned without mutating the filter.
func (f *Filter) scoreCounts(r tokendb.Record, nspam, nham int32) float64 {
	// Clamp counts to the totals, as SpamBayes does, so a corrupt
	// database cannot yield ratios above 1.
	spamcount := min(r.Spam, nspam)
	hamcount := min(r.Ham, nham)
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
	return f.ScoreTokenStream(f.Tokenizer().Stream(m))
}

// Classify returns the verdict and score for a message.
func (f *Filter) Classify(m *mail.Message) (Label, float64) {
	s := f.Score(m)
	return f.opts.LabelFor(s), s
}

// ScoreTokenStream computes I(E) over a tokenized message. Token
// presence drives the score, so the stream's occurrence counts are
// irrelevant here. This is the serving hot path: stream tokens resolve
// through the symbol table, the clue scores are collected and sorted
// as plain numbers in a pooled buffer, and δ(E) is read off both ends
// of the sorted scores, so scoring allocates nothing per message.
func (f *Filter) ScoreTokenStream(ts *tokenize.TokenStream) float64 {
	sc := getScores()
	defer putScores(sc)
	nspam, nham := f.totals()
	for i := 0; i < ts.Len(); i++ {
		s := f.scoreCounts(f.Lookup(string(ts.At(i))), nspam, nham)
		if math.Abs(s-0.5) >= f.opts.MinProbStrength {
			sc.s = append(sc.s, s)
		}
	}
	slices.Sort(sc.s)
	return f.combineSorted(sc.s)
}

// ClassifyTokenStream is Classify over a tokenized message.
func (f *Filter) ClassifyTokenStream(ts *tokenize.TokenStream) (Label, float64) {
	s := f.ScoreTokenStream(ts)
	return f.opts.LabelFor(s), s
}

// Explain returns every distinct token's score and whether it entered
// δ(E), in the message's token order.
func (f *Filter) Explain(m *mail.Message) []Clue {
	ts := f.Tokenizer().Stream(m)
	out := make([]Clue, ts.Len())
	var cands []clue
	for i := range out {
		t := string(ts.At(i))
		s := f.TokenScore(t)
		out[i] = Clue{Token: t, Score: s}
		if d := math.Abs(s - 0.5); d >= f.opts.MinProbStrength {
			cands = append(cands, clue{token: t, score: s, dist: d, at: i})
		}
	}
	slices.SortFunc(cands, compareClues)
	for _, c := range cands[:min(len(cands), f.opts.MaxDiscriminators)] {
		out[c.at].Used = true
	}
	return out
}

// clue pairs a token with its score during Explain's discriminator
// selection.
type clue struct {
	token string
	score float64
	dist  float64
	at    int // position in the message's token order
}

// compareClues orders clues by descending distance from 0.5, then
// descending score, then token text. Stream tokens are distinct, so
// the order is total: Explain needs it to say which tokens entered
// δ(E). The score alone needs only the numeric part of it, because
// tokens with equal scores add equal logarithms whichever of them is
// taken.
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

// combineSorted applies Fisher's method (equations 3–4, implemented
// as in SpamBayes' chi2_spamprob) to δ(E) — the at most
// MaxDiscriminators clues furthest from 0.5 — given every clue score
// in ascending order. It sums the logarithms in compareClues order up
// to swaps of equal scores, which leave the sums bit for bit
// unchanged: a two-ended merge reads scores of 0.5 and above from the
// top and scores below 0.5 from the bottom, taking the one further
// from 0.5 and, at equal distance, the higher. Above 0.5 the distance
// s − 0.5 is exact, so it falls strictly as the scores fall; below
// 0.25 the distance 0.5 − s rounds, so distinct low scores can share
// one, and such a run is taken in descending score.
func (f *Filter) combineSorted(s []float64) float64 {
	split, _ := slices.BinarySearch(s, 0.5)
	lo, hi := 0, len(s)
	var lnF, lnNotF float64
	n := 0
	for n < f.opts.MaxDiscriminators && (lo < split || hi > split) {
		if hi > split && (lo == split || s[hi-1]-0.5 >= 0.5-s[lo]) {
			hi--
			lf, lnf := clueLogs(s[hi])
			lnF += lf
			lnNotF += lnf
			n++
			continue
		}
		run := lo + 1
		for run < split && 0.5-s[run] == 0.5-s[lo] {
			run++
		}
		for k := run - 1; k >= lo && n < f.opts.MaxDiscriminators; k-- {
			lf, lnf := clueLogs(s[k])
			lnF += lf
			lnNotF += lnf
			n++
		}
		lo = run
	}
	return fisher(lnF, lnNotF, n)
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

// scoreScratch is a pooled clue-score buffer, so ranking a message's
// clues allocates nothing once the pool is warm.
type scoreScratch struct{ s []float64 }

// Pooled buffers larger than this are dropped rather than recycled, so
// one huge message (a dictionary attack) cannot pin its score buffer.
const maxPooledScores = 1 << 14

var scorePool = sync.Pool{New: func() any { return new(scoreScratch) }}

func getScores() *scoreScratch { return scorePool.Get().(*scoreScratch) }

func putScores(sc *scoreScratch) {
	if cap(sc.s) > maxPooledScores {
		return
	}
	sc.s = sc.s[:0]
	scorePool.Put(sc)
}
