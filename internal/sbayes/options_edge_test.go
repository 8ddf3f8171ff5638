package sbayes

import (
	"math"
	"testing"
)

// Edge-case behaviour of the learner's knobs.

func TestMinProbStrengthZeroIncludesNeutralTokens(t *testing.T) {
	opts := DefaultOptions()
	opts.MinProbStrength = 0
	f := New(opts, nil)
	for i := 0; i < 10; i++ {
		f.Learn(mkMsg("balanced spamside\n"), true)
		f.Learn(mkMsg("balanced hamside\n"), false)
	}
	// With no indifference window, the perfectly balanced token now
	// participates: the scores with and without it must differ.
	with := f.Score(mkMsg("spamside balanced\n"))
	without := f.Score(mkMsg("spamside\n"))
	if with == without {
		t.Error("neutral token excluded despite MinProbStrength=0")
	}
}

func TestMaxDiscriminatorsOne(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxDiscriminators = 1
	f := New(opts, nil)
	trainBasic(f)
	// With a single discriminator the strongest token decides alone;
	// a message with one spammy and many hammy tokens follows the
	// single furthest-from-0.5 score.
	_, s := classifyWords(f, []string{"viagra", "budget", "meeting", "report"})
	if s <= 0 && s >= 1 {
		t.Fatalf("degenerate score %v", s)
	}
	// Deterministic regardless of token order.
	_, s2 := classifyWords(f, []string{"report", "meeting", "budget", "viagra"})
	if s != s2 {
		t.Errorf("order-dependent with cap 1: %v vs %v", s, s2)
	}
}

func TestExtremePriors(t *testing.T) {
	// x = 0: unknown tokens score 0 — and get excluded or dominate
	// depending on the window; scores must stay in range.
	opts := DefaultOptions()
	opts.UnknownWordProb = 0
	f := New(opts, nil)
	trainBasic(f)
	s := f.Score(mkMsg("neverseen1 neverseen2 viagra\n"))
	if math.IsNaN(s) || s < 0 || s > 1 {
		t.Errorf("score with x=0: %v", s)
	}
	// x = 1 likewise.
	opts.UnknownWordProb = 1
	g := New(opts, nil)
	trainBasic(g)
	s = g.Score(mkMsg("neverseen1 budget\n"))
	if math.IsNaN(s) || s < 0 || s > 1 {
		t.Errorf("score with x=1: %v", s)
	}
}

func TestZeroStrengthPrior(t *testing.T) {
	// s = 0: f(w) = PS(w) exactly (no smoothing).
	opts := DefaultOptions()
	opts.UnknownWordStrength = 0
	f := New(opts, nil)
	learnWords(f, []string{"w"}, true, 3)
	learnWords(f, []string{"u"}, false, 3)
	// PS(w) = (3·3)/(3·3 + 3·0) = 1.
	if got := f.TokenScore("w"); got != 1 {
		t.Errorf("unsmoothed spam-only score = %v, want 1", got)
	}
	if got := f.TokenScore("u"); got != 0 {
		t.Errorf("unsmoothed ham-only score = %v, want 0", got)
	}
	// Combining with extreme scores must not produce NaN.
	s := scoreWords(f, []string{"w", "u"})
	if math.IsNaN(s) {
		t.Error("NaN score from extreme token scores")
	}
}

func TestOnlySpamTrained(t *testing.T) {
	f := NewDefault()
	for i := 0; i < 5; i++ {
		f.Learn(mkMsg("pills lottery casino\n"), true)
	}
	// nham = 0: hamratio guards must hold, spam still detected.
	label, s := f.Classify(mkMsg("pills lottery\n"))
	if math.IsNaN(s) {
		t.Fatal("NaN with nham=0")
	}
	if label != Spam {
		t.Errorf("spam-only filter label = %v (score %v)", label, s)
	}
	// Unknown message stays unsure.
	if _, s := f.Classify(mkMsg("benign words entirely\n")); s != 0.5 {
		t.Errorf("unknown score with nham=0: %v", s)
	}
}

func TestOnlyHamTrained(t *testing.T) {
	f := NewDefault()
	for i := 0; i < 5; i++ {
		f.Learn(mkMsg("meeting budget agenda\n"), false)
	}
	label, s := f.Classify(mkMsg("meeting budget\n"))
	if math.IsNaN(s) || label != Ham {
		t.Errorf("ham-only filter: %v (%v)", label, s)
	}
}

func TestThresholdBoundariesDegenerate(t *testing.T) {
	// θ0 = θ1 = 0.5: no unsure band at all.
	f := NewDefault()
	trainBasic(f)
	if err := f.SetThresholds(0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{"viagra lottery\n", "budget meeting\n", "neverseen\n"} {
		label, s := f.Classify(mkMsg(body))
		want := Ham
		if s > 0.5 {
			want = Spam
		}
		if label != want {
			t.Errorf("degenerate thresholds: %q -> %v (score %v)", body, label, s)
		}
	}
}
