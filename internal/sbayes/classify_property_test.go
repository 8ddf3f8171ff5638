package sbayes

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// randomTokens builds a deterministic pseudo-random token set.
func randomTokens(r *stats.RNG, n int) []string {
	seen := map[string]bool{}
	out := make([]string, 0, n)
	for len(out) < n {
		t := fmt.Sprintf("tok%05d", r.Intn(5000))
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// Property: scores always lie in [0, 1].
func TestQuickScoreInRange(t *testing.T) {
	f := func(seed uint64, trainN, msgN uint8) bool {
		r := stats.NewRNG(seed)
		fl := NewDefault()
		for i := 0; i < int(trainN%40); i++ {
			learnWords(fl, randomTokens(r, 1+r.Intn(30)), r.Bernoulli(0.5), 1+r.Intn(3))
		}
		s := scoreWords(fl, randomTokens(r, 1+int(msgN)%60))
		return s >= 0 && s <= 1 && !math.IsNaN(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: learn followed by unlearn restores every score exactly.
func TestQuickLearnUnlearnIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		fl := NewDefault()
		for i := 0; i < 10; i++ {
			learnWords(fl, randomTokens(r, 1+r.Intn(20)), r.Bernoulli(0.5), 1)
		}
		probe := randomTokens(r, 25)
		before := scoreWords(fl, probe)
		beforeVocab := fl.VocabSize()
		extra := randomTokens(r, 1+r.Intn(20))
		isSpam := r.Bernoulli(0.5)
		w := 1 + r.Intn(5)
		learnWords(fl, extra, isSpam, w)
		if err := unlearnWords(fl, extra, isSpam, w); err != nil {
			return false
		}
		return scoreWords(fl, probe) == before && fl.VocabSize() == beforeVocab
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: weighted learning equals repeated learning.
func TestQuickWeightedEquivalence(t *testing.T) {
	f := func(seed uint64, wRaw uint8) bool {
		w := 1 + int(wRaw)%20
		r := stats.NewRNG(seed)
		tokens := randomTokens(r, 1+r.Intn(15))
		a, b := NewDefault(), NewDefault()
		background := randomTokens(r, 10)
		learnWords(a, background, false, 2)
		learnWords(b, background, false, 2)
		for i := 0; i < w; i++ {
			learnWords(a, tokens, true, 1)
		}
		learnWords(b, tokens, true, w)
		probe := randomTokens(r, 20)
		return scoreWords(a, probe) == scoreWords(b, probe)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Clone then diverge never affects the original's scores.
func TestQuickCloneIsolation(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		fl := NewDefault()
		for i := 0; i < 5; i++ {
			learnWords(fl, randomTokens(r, 10), r.Bernoulli(0.5), 1)
		}
		probe := randomTokens(r, 15)
		before := scoreWords(fl, probe)
		c := fl.Clone()
		learnWords(c, randomTokens(r, 10), true, 3)
		return scoreWords(fl, probe) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: adding a token to spam training weakly increases the score
// of messages containing that token (paper §3.4 monotonicity).
func TestQuickSpamEvidenceMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		fl := NewDefault()
		for i := 0; i < 8; i++ {
			learnWords(fl, randomTokens(r, 12), r.Bernoulli(0.5), 1)
		}
		probe := randomTokens(r, 10)
		before := scoreWords(fl, probe)
		// Poison: all probe tokens into one spam message.
		learnWords(fl, probe, true, 1+r.Intn(10))
		after := scoreWords(fl, probe)
		return after >= before-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
