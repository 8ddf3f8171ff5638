package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/sbayes"
)

// Fig2Cell aggregates target verdicts for one knowledge level.
type Fig2Cell struct {
	GuessProb float64
	Ham       int
	Unsure    int
	Spam      int
}

// Total returns the number of attacked targets behind the cell.
func (c Fig2Cell) Total() int { return c.Ham + c.Unsure + c.Spam }

// ChangedRate is the fraction of targets whose classification the
// attack changed away from ham (the paper's headline: 60% at p=0.3).
func (c Fig2Cell) ChangedRate() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.Unsure+c.Spam) / float64(c.Total())
}

// Fig2Result is the knowledge sweep of Figure 2.
type Fig2Result struct {
	InboxSize   int
	AttackCount int
	Cells       []Fig2Cell
}

// RunFig2 reproduces Figure 2: the focused attack's effect as a
// function of the probability p of guessing each target token, with
// a fixed number of attack emails (300 against a 5,000-message
// inbox). Each repetition samples a fresh inbox and targets; each
// (target, p) pair draws one knowledge realization and injects
// AttackCount identical attack emails.
func RunFig2(env *Env) (*Fig2Result, error) {
	cfg := env.Cfg
	res := &Fig2Result{InboxSize: cfg.FocusedInbox, AttackCount: cfg.FocusedCount}
	res.Cells = make([]Fig2Cell, len(cfg.GuessProbs))
	for i, p := range cfg.GuessProbs {
		res.Cells[i].GuessProb = p
	}
	for rep := 0; rep < cfg.FocusedReps; rep++ {
		r := env.RNG(fmt.Sprintf("fig2-rep%d", rep))
		fr, err := env.newFocusedRep(r)
		if err != nil {
			return nil, fmt.Errorf("fig2 rep %d: %w", rep, err)
		}
		for ti, target := range fr.targets {
			for pi, p := range cfg.GuessProbs {
				attack, err := core.NewFocusedAttack(target, p, fr.spam)
				if err != nil {
					return nil, err
				}
				ar := r.Split(fmt.Sprintf("t%d-p%d", ti, pi))
				label := fr.attackAndClassify(env, attack.BuildAttack(ar), cfg.FocusedCount, target)
				switch label {
				case sbayes.Ham:
					res.Cells[pi].Ham++
				case sbayes.Unsure:
					res.Cells[pi].Unsure++
				default:
					res.Cells[pi].Spam++
				}
			}
		}
	}
	return res, nil
}

// Render prints the stacked-bar data of Figure 2.
func (r *Fig2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: focused attack vs. probability of guessing target tokens\n")
	fmt.Fprintf(&b, "(%d attack emails, %d-message initial inbox, 50%% spam).\n", r.AttackCount, r.InboxSize)
	t := eval.NewTable("guess p", "ham", "unsure", "spam", "% changed")
	for _, c := range r.Cells {
		tot := float64(c.Total())
		t.AddRow(
			fmt.Sprintf("%.1f", c.GuessProb),
			pct(float64(c.Ham)/tot),
			pct(float64(c.Unsure)/tot),
			pct(float64(c.Spam)/tot),
			pct(c.ChangedRate()))
	}
	b.WriteString(t.String())
	return b.String()
}
