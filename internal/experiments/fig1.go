package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/sbayes"
	"repro/internal/tokenize"
)

// Fig1Point is one (attack, fraction) cell of Figure 1, aggregated
// over all cross-validation folds.
type Fig1Point struct {
	Fraction  float64
	NumAttack int // attack messages per fold at this fraction
	Confusion eval.Confusion
}

// Fig1Series is one attack's curve.
type Fig1Series struct {
	Attack string
	Points []Fig1Point
}

// Fig1Result holds the dictionary-attack sweep: baseline plus one
// series per word source.
type Fig1Result struct {
	TrainSize int
	Folds     int
	Baseline  eval.Confusion
	Series    []Fig1Series
}

// RunFig1 reproduces Figure 1: the optimal, Usenet and Aspell
// dictionary attacks on a TrainSize-message training set, K-fold
// cross-validated, measuring ham misclassification as the attack
// fraction grows. Attack emails have empty headers and are trained
// as spam (contamination assumption).
func RunFig1(env *Env) (*Fig1Result, error) {
	cfg := env.Cfg
	rng := env.RNG("fig1")
	inbox, err := env.Pool.SampleInbox(rng, cfg.InboxSize(), cfg.SpamPrevalence)
	if err != nil {
		return nil, fmt.Errorf("fig1: %w", err)
	}
	folds, err := inbox.KFold(cfg.Folds)
	if err != nil {
		return nil, fmt.Errorf("fig1: %w", err)
	}

	attacks := []*core.DictionaryAttack{
		core.NewDictionaryAttack(env.Optimal),
		core.NewDictionaryAttack(env.Usenet),
		core.NewDictionaryAttack(env.Aspell),
	}
	// Attack emails are deterministic; tokenize each once.
	attackStreams := make([]*tokenize.TokenStream, len(attacks))
	for i, a := range attacks {
		attackStreams[i] = env.Tok.Stream(a.BuildAttack(rng))
	}

	type foldOut struct {
		baseline eval.Confusion
		cells    [][]eval.Confusion // [attack][fraction]
	}
	outs := make([]foldOut, len(folds))
	eval.Parallel(len(folds), cfg.Workers, func(fi int) {
		fold := folds[fi]
		base := eval.TrainFilter(fold.Train, sbayes.DefaultOptions(), env.Tok)
		test := eval.StreamCorpus(fold.Test, env.Tok)
		out := foldOut{cells: make([][]eval.Confusion, len(attacks))}
		out.baseline = eval.EvaluateStreamSet(base, test)
		trainN := fold.Train.Len()
		for ai := range attacks {
			f := base.Clone()
			prev := 0
			out.cells[ai] = make([]eval.Confusion, len(cfg.Fractions))
			for pi, frac := range cfg.Fractions {
				n := core.AttackSize(frac, trainN)
				if n > prev {
					f.LearnTokenStream(attackStreams[ai], true, n-prev) //sbvet:unguarded the attack injection being measured: the experiment trains the poison in deliberately
					prev = n
				}
				out.cells[ai][pi] = eval.EvaluateStreamSet(f, test)
			}
		}
		outs[fi] = out
	})

	res := &Fig1Result{TrainSize: cfg.TrainSize, Folds: cfg.Folds}
	for _, o := range outs {
		res.Baseline.Add(o.baseline)
	}
	for ai, a := range attacks {
		series := Fig1Series{Attack: a.Name()}
		for pi, frac := range cfg.Fractions {
			pt := Fig1Point{
				Fraction:  frac,
				NumAttack: core.AttackSize(frac, folds[0].Train.Len()),
			}
			for _, o := range outs {
				pt.Confusion.Add(o.cells[ai][pi])
			}
			series.Points = append(series.Points, pt)
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// Render prints the Figure 1 series: for each attack, the percent of
// test ham classified as spam (the paper's dashed lines) and as spam
// or unsure (solid lines) per attack fraction.
func (r *Fig1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: dictionary attacks on an initial training set of %d messages (%d-fold CV).\n",
		r.TrainSize, r.Folds)
	fmt.Fprintf(&b, "Baseline (no attack): ham as spam %s, ham as spam+unsure %s, spam misclassified %s.\n",
		pct(r.Baseline.HamAsSpamRate()), pct(r.Baseline.HamMisclassifiedRate()),
		pct(r.Baseline.SpamMisclassifiedRate()))
	header := []string{"atk%", "#atk"}
	for _, s := range r.Series {
		header = append(header, s.Attack+" spam", s.Attack+" s+u")
	}
	t := eval.NewTable(header...)
	for pi := range r.Series[0].Points {
		row := []string{
			fmt.Sprintf("%.1f", 100*r.Series[0].Points[pi].Fraction),
			fmt.Sprintf("%d", r.Series[0].Points[pi].NumAttack),
		}
		for _, s := range r.Series {
			row = append(row,
				pct(s.Points[pi].Confusion.HamAsSpamRate()),
				pct(s.Points[pi].Confusion.HamMisclassifiedRate()))
		}
		t.AddRow(row...)
	}
	b.WriteString(t.String())
	return b.String()
}

// SeriesByName returns the named series, or nil.
func (r *Fig1Result) SeriesByName(name string) *Fig1Series {
	for i := range r.Series {
		if r.Series[i].Attack == name {
			return &r.Series[i]
		}
	}
	return nil
}
