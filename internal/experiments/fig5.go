package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/sbayes"
)

// Fig5Cell is one (defense, fraction) cell aggregated over folds.
type Fig5Cell struct {
	Fraction  float64
	NumAttack int
	// Theta0/Theta1 are the mean fitted thresholds across folds
	// (static defaults for the no-defense row).
	Theta0    float64
	Theta1    float64
	Confusion eval.Confusion
}

// Fig5Series is one defense's curve.
type Fig5Series struct {
	Defense string
	Cells   []Fig5Cell
}

// Fig5Result holds the dynamic-threshold defense sweep.
type Fig5Result struct {
	TrainSize int
	Folds     int
	Attack    string
	Series    []Fig5Series
}

// RunFig5 reproduces Figure 5: the dictionary attack (Usenet word
// source) against an undefended filter and against the dynamic
// threshold defense at utilities 0.05 and 0.10.
//
// Threshold fitting follows §5.2: the poisoned training set is split
// in half, a probe filter is trained on one half, the other half is
// scored, and θ0/θ1 are fit to the utility targets. Because all
// attack copies are identical, the poisoned halves are simulated
// exactly by training the clean half plus n/2 weighted attack copies
// and scoring the clean other half plus the attack email with
// multiplicity n/2.
func RunFig5(env *Env) (*Fig5Result, error) {
	cfg := env.Cfg
	rng := env.RNG("fig5")
	inbox, err := env.Pool.SampleInbox(rng, cfg.TrainSize*cfg.ThresholdFolds/(cfg.ThresholdFolds-1), cfg.SpamPrevalence)
	if err != nil {
		return nil, fmt.Errorf("fig5: %w", err)
	}
	folds, err := inbox.KFold(cfg.ThresholdFolds)
	if err != nil {
		return nil, fmt.Errorf("fig5: %w", err)
	}
	attack := core.NewDictionaryAttack(env.Usenet)
	attackStream := env.Tok.Stream(attack.BuildAttack(rng))

	defenses := make([]string, 0, 1+len(cfg.ThresholdUtilities))
	defenses = append(defenses, "no defense")
	for _, u := range cfg.ThresholdUtilities {
		defenses = append(defenses, core.DynamicThreshold{Utility: u}.Name())
	}

	type cellOut struct {
		conf   eval.Confusion
		theta0 float64
		theta1 float64
	}
	// outs[fold][defense][fraction]
	outs := make([][][]cellOut, len(folds))
	fracs := append([]float64{0}, cfg.ThresholdFractions...)

	eval.Parallel(len(folds), cfg.Workers, func(fi int) {
		fold := folds[fi]
		opts := sbayes.DefaultOptions()
		base := eval.TrainFilter(fold.Train, opts, env.Tok)
		test := eval.StreamCorpus(fold.Test, env.Tok)
		// Split the clean training fold in half for threshold fitting.
		half1, half2, _ := fold.Train.SplitFraction(0.5)
		probeBase := eval.TrainFilter(half1, opts, env.Tok)
		half2Streams := eval.StreamCorpus(half2, env.Tok)

		out := make([][]cellOut, len(defenses))
		for di := range out {
			out[di] = make([]cellOut, len(fracs))
		}
		poisoned := base.Clone()
		probe := probeBase.Clone()
		prevN := 0
		for pi, frac := range fracs {
			n := core.AttackSize(frac, fold.Train.Len())
			if n > prevN {
				poisoned.LearnTokenStream(attackStream, true, n-prevN)    //sbvet:unguarded the attack injection being measured: the experiment trains the poison in deliberately
				probe.LearnTokenStream(attackStream, true, (n-prevN+1)/2) //sbvet:unguarded the attack injection being measured: the experiment trains the poison in deliberately
				prevN = n
			}
			// Validation scores under the poisoned probe: the clean
			// half plus n/2 attack copies (identical, scored once).
			var hamScores, spamScores []float64
			for _, ex := range half2Streams {
				s := probe.ScoreTokenStream(ex.Stream)
				if ex.Spam {
					spamScores = append(spamScores, s)
				} else {
					hamScores = append(hamScores, s)
				}
			}
			if n/2 > 0 {
				s := probe.ScoreTokenStream(attackStream)
				for i := 0; i < n/2; i++ {
					spamScores = append(spamScores, s)
				}
			}
			for di, name := range defenses {
				theta0, theta1 := opts.HamCutoff, opts.SpamCutoff
				if di > 0 {
					d := core.DynamicThreshold{Utility: cfg.ThresholdUtilities[di-1]}
					var err error
					theta0, theta1, err = d.FitThresholds(hamScores, spamScores)
					if err != nil {
						panic(fmt.Sprintf("fig5: fitting thresholds: %v", err))
					}
				}
				evalFilter := poisoned.Clone()
				if err := evalFilter.SetThresholds(theta0, theta1); err != nil {
					panic(fmt.Sprintf("fig5: applying thresholds (%v, %v): %v", theta0, theta1, err))
				}
				out[di][pi] = cellOut{
					conf:   eval.EvaluateStreamSet(evalFilter, test),
					theta0: theta0,
					theta1: theta1,
				}
				_ = name
			}
		}
		outs[fi] = out
	})

	res := &Fig5Result{TrainSize: cfg.TrainSize, Folds: cfg.ThresholdFolds, Attack: attack.Name()}
	for di, name := range defenses {
		series := Fig5Series{Defense: name}
		for pi, frac := range fracs {
			cell := Fig5Cell{Fraction: frac, NumAttack: core.AttackSize(frac, folds[0].Train.Len())}
			for fi := range outs {
				cell.Confusion.Add(outs[fi][di][pi].conf)
				cell.Theta0 += outs[fi][di][pi].theta0 / float64(len(outs))
				cell.Theta1 += outs[fi][di][pi].theta1 / float64(len(outs))
			}
			series.Cells = append(series.Cells, cell)
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// SeriesByName returns the named defense series, or nil.
func (r *Fig5Result) SeriesByName(name string) *Fig5Series {
	for i := range r.Series {
		if r.Series[i].Defense == name {
			return &r.Series[i]
		}
	}
	return nil
}

// Render prints the Figure 5 table: ham-as-spam (dashed) and ham
// misclassified (solid) per defense, plus the spam-as-unsure side
// effect the paper highlights.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: dynamic threshold defense vs. the %s dictionary attack\n", r.Attack)
	fmt.Fprintf(&b, "(%d-message training set, %d folds).\n", r.TrainSize, r.Folds)
	header := []string{"atk%"}
	for _, s := range r.Series {
		header = append(header, s.Defense+" spam", s.Defense+" s+u", s.Defense+" spam→u")
	}
	t := eval.NewTable(header...)
	for ci := range r.Series[0].Cells {
		row := []string{fmt.Sprintf("%.1f", 100*r.Series[0].Cells[ci].Fraction)}
		for _, s := range r.Series {
			c := s.Cells[ci]
			row = append(row,
				pct(c.Confusion.HamAsSpamRate()),
				pct(c.Confusion.HamMisclassifiedRate()),
				pct(c.Confusion.SpamAsUnsureRate()))
		}
		t.AddRow(row...)
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "mean fitted thresholds at the largest attack: ")
	for _, s := range r.Series[1:] {
		last := s.Cells[len(s.Cells)-1]
		fmt.Fprintf(&b, "%s θ0=%.3f θ1=%.3f  ", s.Defense, last.Theta0, last.Theta1)
	}
	b.WriteByte('\n')
	return b.String()
}
