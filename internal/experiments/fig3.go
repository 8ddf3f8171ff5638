package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/sbayes"
)

// Fig3Point aggregates target verdicts at one attack volume.
type Fig3Point struct {
	Fraction  float64
	NumAttack int
	Ham       int
	Unsure    int
	Spam      int
}

// SpamRate is the fraction of targets misclassified as spam (the
// figure's dashed line).
func (p Fig3Point) SpamRate() float64 {
	if t := p.Ham + p.Unsure + p.Spam; t > 0 {
		return float64(p.Spam) / float64(t)
	}
	return 0
}

// MisclassifiedRate is the fraction misclassified as unsure or spam
// (the solid line).
func (p Fig3Point) MisclassifiedRate() float64 {
	if t := p.Ham + p.Unsure + p.Spam; t > 0 {
		return float64(p.Unsure+p.Spam) / float64(t)
	}
	return 0
}

// Fig3Result is the attack-volume sweep of Figure 3.
type Fig3Result struct {
	InboxSize int
	GuessProb float64
	Points    []Fig3Point
}

// RunFig3 reproduces Figure 3: the focused attack's effect as the
// number of attack emails grows, with the per-token guess
// probability fixed (p = 0.5). The knowledge realization is drawn
// once per (repetition, target) and held fixed across the volume
// sweep, so each target's curve is a monotone threshold crossing —
// larger volumes only add copies of the same attack email.
func RunFig3(env *Env) (*Fig3Result, error) {
	cfg := env.Cfg
	res := &Fig3Result{InboxSize: cfg.FocusedInbox, GuessProb: cfg.FixedGuessProb}
	res.Points = make([]Fig3Point, len(cfg.VolumeSteps))
	for i, frac := range cfg.VolumeSteps {
		res.Points[i].Fraction = frac
		res.Points[i].NumAttack = core.AttackSize(frac, cfg.FocusedInbox)
	}
	for rep := 0; rep < cfg.FocusedReps; rep++ {
		r := env.RNG(fmt.Sprintf("fig3-rep%d", rep))
		fr, err := env.newFocusedRep(r)
		if err != nil {
			return nil, fmt.Errorf("fig3 rep %d: %w", rep, err)
		}
		for ti, target := range fr.targets {
			attack, err := core.NewFocusedAttack(target, cfg.FixedGuessProb, fr.spam)
			if err != nil {
				return nil, err
			}
			attackMsg := attack.BuildAttack(r.Split(fmt.Sprintf("t%d", ti)))
			ts := env.Tok.Stream(attackMsg)
			// Sweep volumes incrementally: learn only the delta.
			trained := 0
			for pi := range res.Points {
				n := res.Points[pi].NumAttack
				if n > trained {
					fr.filter.LearnTokenStream(ts, true, n-trained) //sbvet:unguarded the attack injection being measured: the experiment trains the poison in deliberately
					trained = n
				}
				label, _ := fr.filter.Classify(target)
				switch label {
				case sbayes.Ham:
					res.Points[pi].Ham++
				case sbayes.Unsure:
					res.Points[pi].Unsure++
				default:
					res.Points[pi].Spam++
				}
			}
			if err := fr.filter.UnlearnTokenStream(ts, true, trained); err != nil {
				return nil, fmt.Errorf("fig3: restoring filter: %w", err)
			}
		}
	}
	return res, nil
}

// Render prints the Figure 3 series.
func (r *Fig3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: focused attack vs. number of attack emails (guess p=%.1f,\n", r.GuessProb)
	fmt.Fprintf(&b, "%d-message initial inbox, 50%% spam).\n", r.InboxSize)
	t := eval.NewTable("atk%", "#atk", "target as spam", "target as spam+unsure")
	for _, p := range r.Points {
		t.AddRow(
			fmt.Sprintf("%.1f", 100*p.Fraction),
			fmt.Sprintf("%d", p.NumAttack),
			pct(p.SpamRate()),
			pct(p.MisclassifiedRate()))
	}
	b.WriteString(t.String())
	return b.String()
}
