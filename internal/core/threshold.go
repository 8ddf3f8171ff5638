package core

import (
	"fmt"
	"sort"

	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/sbayes"
	"repro/internal/stats"
	"repro/internal/tokenize"
)

// DynamicThreshold implements the §5.2 defense: instead of the static
// SpamBayes cutoffs θ0 = 0.15, θ1 = 0.9, thresholds are fit to the
// score distribution the (possibly poisoned) filter actually produces
// on held-out training data. Distribution-shifting attacks raise ham
// and spam scores together, and rankings are invariant to such
// shifts, so data-driven cutoffs can keep separating the classes.
//
// Following the paper: the training set is split in half, a filter F
// is trained on one half, each message of the other half V is scored
// by F, and θ0, θ1 are chosen against the utility function
//
//	g(t) = N_{S,<}(t) / (N_{S,<}(t) + N_{H,>}(t))
//
// where N_{S,<}(t) counts spam scoring below t and N_{H,>}(t) ham
// scoring above t: θ0 is set where g ≈ Utility (0.05 or 0.10) and θ1
// where g ≈ 1 − Utility.
type DynamicThreshold struct {
	// Utility is the paper's g-target: 0.05 ("Threshold-.05") or
	// 0.10 ("Threshold-.10").
	Utility float64
}

// Name labels the defense variant as in Figure 5.
func (d DynamicThreshold) Name() string {
	return fmt.Sprintf("threshold-%.2f", d.Utility)
}

// Validate checks the utility target.
func (d DynamicThreshold) Validate() error {
	if d.Utility <= 0 || d.Utility >= 0.5 {
		return fmt.Errorf("core: dynamic threshold utility %v outside (0, 0.5)", d.Utility)
	}
	return nil
}

// FitThresholds chooses (θ0, θ1) from validation scores: hamScores
// and spamScores are filter scores of known-label messages.
//
// The fit follows the paper's utility function with explicit
// conventions for the degenerate 0/0 region between well-separated
// classes (where no spam scores below t and no ham scores above t —
// a perfect separator, so it counts as satisfying either target):
//
//   - θ0 is the largest grid point t whose "spam at or below t"
//     fraction g₀(t) = N_{S,≤}(t)/(N_{S,≤}(t)+N_{H,>}(t)) is at most
//     Utility (0/0 counts as 0). Ham classification (score ≤ θ0)
//     then mislabels at most ≈Utility-worth of spam.
//   - θ1 is the smallest grid point t ≥ θ0 whose strict fraction
//     g₁(t) = N_{S,<}(t)/(N_{S,<}(t)+N_{H,>}(t)) is at least
//     1 − Utility (0/0 counts as 1). Spam classification (score >
//     θ1) then mislabels at most ≈Utility-worth of ham.
//
// A smaller Utility therefore pushes θ0 down and θ1 up — the paper's
// observation that Threshold-.05 has a wider unsure range than
// Threshold-.10.
func (d DynamicThreshold) FitThresholds(hamScores, spamScores []float64) (theta0, theta1 float64, err error) {
	if err := d.Validate(); err != nil {
		return 0, 0, err
	}
	if len(hamScores) == 0 || len(spamScores) == 0 {
		return 0, 0, fmt.Errorf("core: FitThresholds needs scores from both classes (%d ham, %d spam)",
			len(hamScores), len(spamScores))
	}
	ham := append([]float64(nil), hamScores...)
	spam := append([]float64(nil), spamScores...)
	sort.Float64s(ham)
	sort.Float64s(spam)

	// counts at threshold t.
	spamAtOrBelow := func(t float64) int {
		return sort.Search(len(spam), func(i int) bool { return spam[i] > t })
	}
	spamBelow := func(t float64) int {
		return sort.Search(len(spam), func(i int) bool { return spam[i] >= t })
	}
	hamAbove := func(t float64) int {
		return len(ham) - sort.Search(len(ham), func(i int) bool { return ham[i] > t })
	}

	// Candidate thresholds: every observed score plus the midpoints
	// between adjacent distinct scores, and the [0, 1] endpoints.
	// Post-attack score distributions concentrate near 1.0, so a
	// uniform grid would be far too coarse exactly where the cutoffs
	// must fall; score-derived candidates give exact resolution.
	merged := make([]float64, 0, len(ham)+len(spam)+2)
	merged = append(merged, 0)
	merged = append(merged, ham...)
	merged = append(merged, spam...)
	merged = append(merged, 1)
	sort.Float64s(merged)
	cands := make([]float64, 1, 2*len(merged))
	cands[0] = merged[0]
	for i := 1; i < len(merged); i++ {
		if merged[i] == merged[i-1] {
			continue
		}
		cands = append(cands, (merged[i]+merged[i-1])/2, merged[i])
	}

	theta0 = 0
	for i := len(cands) - 1; i >= 0; i-- {
		t := cands[i]
		ns, nh := spamAtOrBelow(t), hamAbove(t)
		var g0 float64
		if ns+nh > 0 {
			g0 = float64(ns) / float64(ns+nh)
		}
		if g0 <= d.Utility {
			theta0 = t
			break
		}
	}
	theta1 = 1.0
	for _, t := range cands {
		if t < theta0 {
			continue
		}
		ns, nh := spamBelow(t), hamAbove(t)
		g1 := 1.0
		if ns+nh > 0 {
			g1 = float64(ns) / float64(ns+nh)
		}
		if g1 >= 1-d.Utility {
			theta1 = t
			break
		}
	}
	if theta1 < theta0 {
		theta1 = theta0
	}
	return clamp01(theta0), clamp01(theta1), nil
}

// Train builds a defended filter from a training corpus: it fits
// thresholds via the half-split procedure, then trains the returned
// filter on the full training set with the fitted cutoffs installed.
func (d DynamicThreshold) Train(train *corpus.Corpus, opts sbayes.Options, tok *tokenize.Tokenizer, r *stats.RNG) (*sbayes.Filter, float64, float64, error) {
	if err := d.Validate(); err != nil {
		return nil, 0, 0, err
	}
	shuffled := train.Clone()
	shuffled.Shuffle(r)
	half, val, err := shuffled.SplitFraction(0.5)
	if err != nil {
		return nil, 0, 0, err
	}
	probe := sbayes.New(opts, tok)
	for _, e := range half.Examples {
		probe.Learn(e.Msg, e.Spam)
	}
	var hamScores, spamScores []float64
	for _, e := range val.Examples {
		s := probe.Score(e.Msg)
		if e.Spam {
			spamScores = append(spamScores, s)
		} else {
			hamScores = append(hamScores, s)
		}
	}
	t0, t1, err := d.FitThresholds(hamScores, spamScores)
	if err != nil {
		return nil, 0, 0, err
	}
	final := sbayes.New(opts, tok)
	for _, e := range train.Examples {
		final.Learn(e.Msg, e.Spam)
	}
	if err := final.SetThresholds(t0, t1); err != nil {
		return nil, 0, 0, err
	}
	return final, t0, t1, nil
}

// Refit fits (θ0, θ1) to the score distribution a replacement
// classifier produces on a calibration corpus and installs them
// through the classifier's SetThresholds — the swap-time rendition of
// the defense: where Train runs the half-split procedure as an offline
// batch step, Refit is called by a publish hook on every new snapshot
// just before it goes live, so the serving cutoffs track the live
// (possibly attack-shifted) score distribution generation by
// generation. The calibration corpus is typically the most recent
// admitted mail.
func (d DynamicThreshold) Refit(clf engine.Classifier, calib *corpus.Corpus) (theta0, theta1 float64, err error) {
	var hamScores, spamScores []float64
	for _, e := range calib.Examples {
		s := clf.Score(e.Msg)
		if e.Spam {
			spamScores = append(spamScores, s)
		} else {
			hamScores = append(hamScores, s)
		}
	}
	theta0, theta1, err = d.FitThresholds(hamScores, spamScores)
	if err != nil {
		return 0, 0, err
	}
	if err := clf.SetThresholds(theta0, theta1); err != nil {
		return 0, 0, err
	}
	return theta0, theta1, nil
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
