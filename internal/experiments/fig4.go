package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/sbayes"
	"repro/internal/stats"
)

// TokenShift records one token's spam score before and after a
// focused attack — one point of a Figure 4 scatter plot.
type TokenShift struct {
	Token    string
	Before   float64
	After    float64
	Included bool // whether the attacker guessed the token
}

// Fig4Target is one representative target's panel.
type Fig4Target struct {
	// Outcome is the target's post-attack verdict (the paper shows
	// one target each for spam, unsure, ham).
	Outcome sbayes.Label
	// GuessProb is the knowledge level that produced this outcome.
	GuessProb   float64
	ScoreBefore float64
	ScoreAfter  float64
	Shifts      []TokenShift
}

// Fig4Result holds up to three representative panels.
type Fig4Result struct {
	GuessProb   float64
	AttackCount int
	Targets     []Fig4Target
}

// RunFig4 reproduces Figure 4: for representative targets of each
// post-attack outcome (misclassified as spam, as unsure, and still
// ham), the per-token spam scores before and after a focused attack.
// Included (guessed) tokens jump toward 1; excluded tokens drift
// slightly down because the attack inflates the total spam count.
//
// Panels are searched first at the fixed p = 0.5 knowledge level; if
// some outcome never occurs there (at full scale p = 0.5 flips nearly
// every target), the search widens over the Figure 2 knowledge sweep
// so that, as in the paper, a panel of each outcome can be shown.
// Each panel records the knowledge level that produced it.
func RunFig4(env *Env) (*Fig4Result, error) {
	cfg := env.Cfg
	r := env.RNG("fig4")
	fr, err := env.newFocusedRep(r)
	if err != nil {
		return nil, fmt.Errorf("fig4: %w", err)
	}
	res := &Fig4Result{GuessProb: cfg.FixedGuessProb, AttackCount: cfg.FocusedCount}

	// Knowledge levels to search, preferred level first.
	probs := []float64{cfg.FixedGuessProb}
	for _, p := range cfg.GuessProbs {
		if p != cfg.FixedGuessProb {
			probs = append(probs, p)
		}
	}

	byOutcome := map[sbayes.Label]*Fig4Target{}
	for _, p := range probs {
		if len(byOutcome) == 3 {
			break
		}
		for ti, target := range fr.targets {
			if len(byOutcome) == 3 {
				break
			}
			attack, err := core.NewFocusedAttack(target, p, fr.spam)
			if err != nil {
				return nil, err
			}
			ar := r.Split(fmt.Sprintf("t%d-p%v", ti, p))
			attackMsg := attack.BuildAttack(ar)
			attackStream := env.Tok.Stream(attackMsg)
			included := make(map[string]bool, attackStream.Len())
			for i := 0; i < attackStream.Len(); i++ {
				included[string(attackStream.At(i))] = true
			}

			before := fr.filter.Explain(target)
			_, scoreBefore := fr.filter.Classify(target)
			fr.filter.LearnTokenStream(attackStream, true, cfg.FocusedCount) //sbvet:unguarded the attack injection being measured: the experiment trains the poison in deliberately
			after := fr.filter.Explain(target)
			label, scoreAfter := fr.filter.Classify(target)
			if err := fr.filter.UnlearnTokenStream(attackStream, true, cfg.FocusedCount); err != nil {
				return nil, fmt.Errorf("fig4: restoring filter: %w", err)
			}
			if byOutcome[label] != nil {
				continue
			}
			panel := &Fig4Target{Outcome: label, GuessProb: p, ScoreBefore: scoreBefore, ScoreAfter: scoreAfter}
			afterScore := make(map[string]float64, len(after))
			for _, c := range after {
				afterScore[c.Token] = c.Score
			}
			for _, c := range before {
				panel.Shifts = append(panel.Shifts, TokenShift{
					Token:    c.Token,
					Before:   c.Score,
					After:    afterScore[c.Token],
					Included: included[c.Token],
				})
			}
			byOutcome[label] = panel
		}
	}
	// Stable panel order: spam, unsure, ham (as in the figure).
	for _, label := range []sbayes.Label{sbayes.Spam, sbayes.Unsure, sbayes.Ham} {
		if p := byOutcome[label]; p != nil {
			res.Targets = append(res.Targets, *p)
		}
	}
	if len(res.Targets) == 0 {
		return nil, fmt.Errorf("fig4: no targets attacked")
	}
	return res, nil
}

// IncludedDeltaSummary summarizes the score change of included vs.
// excluded tokens for a panel.
func (t *Fig4Target) IncludedDeltaSummary() (incMean, excMean float64) {
	var inc, exc []float64
	for _, s := range t.Shifts {
		d := s.After - s.Before
		if s.Included {
			inc = append(inc, d)
		} else {
			exc = append(exc, d)
		}
	}
	return stats.Mean(inc), stats.Mean(exc)
}

// Render prints, per representative target, the score movement
// summary, the largest token shifts, and before/after histograms —
// the textual equivalent of the Figure 4 scatter plots.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: token scores before/after the focused attack (p=%.1f, %d attack emails).\n",
		r.GuessProb, r.AttackCount)
	for _, tgt := range r.Targets {
		fmt.Fprintf(&b, "\n-- target classified %s after attack (p=%.1f, score %.3f -> %.3f) --\n",
			tgt.Outcome, tgt.GuessProb, tgt.ScoreBefore, tgt.ScoreAfter)
		incMean, excMean := tgt.IncludedDeltaSummary()
		fmt.Fprintf(&b, "mean score change: included tokens %+.3f, excluded tokens %+.3f\n", incMean, excMean)

		shifts := append([]TokenShift(nil), tgt.Shifts...)
		sort.Slice(shifts, func(i, j int) bool {
			di := shifts[i].After - shifts[i].Before
			dj := shifts[j].After - shifts[j].Before
			if di != dj {
				return di > dj
			}
			return shifts[i].Token < shifts[j].Token
		})
		t := eval.NewTable("token", "before", "after", "included")
		show := 8
		if len(shifts) < 2*show {
			show = len(shifts) / 2
		}
		for _, s := range shifts[:show] {
			t.AddRow(s.Token, fmt.Sprintf("%.3f", s.Before), fmt.Sprintf("%.3f", s.After), fmt.Sprintf("%v", s.Included))
		}
		if len(shifts) > 2*show {
			t.AddRow("...", "", "", "")
		}
		for _, s := range shifts[len(shifts)-show:] {
			t.AddRow(s.Token, fmt.Sprintf("%.3f", s.Before), fmt.Sprintf("%.3f", s.After), fmt.Sprintf("%v", s.Included))
		}
		b.WriteString(t.String())

		beforeH := stats.NewHistogram(0, 1, 10)
		afterH := stats.NewHistogram(0, 1, 10)
		for _, s := range tgt.Shifts {
			beforeH.Add(s.Before)
			afterH.Add(s.After)
		}
		fmt.Fprintf(&b, "score distribution before attack:\n%s", beforeH.Render(30))
		fmt.Fprintf(&b, "score distribution after attack:\n%s", afterH.Render(30))
	}
	return b.String()
}
