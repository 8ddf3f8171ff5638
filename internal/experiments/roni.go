package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/lexicon"
	"repro/internal/mail"
	"repro/internal/sbayes"
	"repro/internal/stats"
)

// RONIVariantResult summarizes the RONI impact measurements for one
// dictionary attack variant.
type RONIVariantResult struct {
	Variant string
	// HamAsHamDeltas holds the mean ham-as-ham change per repetition
	// (negative = harmful).
	HamAsHamDeltas []float64
	// Rejected counts repetitions flagged by the threshold rule.
	Rejected int
}

// Summary summarizes the per-rep deltas.
func (v RONIVariantResult) Summary() stats.Summary { return stats.Summarize(v.HamAsHamDeltas) }

// DetectionRate is the fraction of attack emails flagged.
func (v RONIVariantResult) DetectionRate() float64 {
	if len(v.HamAsHamDeltas) == 0 {
		return 0
	}
	return float64(v.Rejected) / float64(len(v.HamAsHamDeltas))
}

// RONIResult holds the §5.1 reproduction: the per-variant attack
// impacts and the non-attack control measurements.
type RONIResult struct {
	Config core.RONIConfig
	// Variants are the dictionary attack variants (paper: seven).
	Variants []RONIVariantResult
	// NonAttackSpamDeltas are per-candidate impacts of ordinary spam.
	NonAttackSpamDeltas []float64
	// NonAttackSpamRejected counts falsely flagged ordinary spam.
	NonAttackSpamRejected int
	// NonAttackHamDeltas extends the paper's control to ham-labeled
	// training candidates.
	NonAttackHamDeltas []float64
	// NonAttackHamRejected counts falsely flagged ham.
	NonAttackHamRejected int
	// FocusedDeltas are impacts of focused attack emails — which the
	// paper reports RONI cannot distinguish from ordinary spam (the
	// attack targets a future email, so its harm is invisible on the
	// training distribution).
	FocusedDeltas []float64
	// FocusedRejected counts flagged focused attack emails.
	FocusedRejected int
}

// WorstNonAttack returns the most harmful (most negative) non-attack
// spam impact — the paper reports "at most an average decrease of
// 4.4 ham-as-ham messages".
func (r *RONIResult) WorstNonAttack() float64 {
	worst := 0.0
	for _, d := range r.NonAttackSpamDeltas {
		if d < worst {
			worst = d
		}
	}
	return worst
}

// BestAttack returns the least harmful attack impact across all
// variants and reps — the paper reports "at least an average
// decrease of 6.8".
func (r *RONIResult) BestAttack() float64 {
	best := stats.Summarize(nil).Mean // NaN when empty
	first := true
	for _, v := range r.Variants {
		for _, d := range v.HamAsHamDeltas {
			if first || d > best {
				best = d
				first = false
			}
		}
	}
	return best
}

// Separable reports whether a single threshold separates every attack
// measurement from every non-attack spam measurement.
func (r *RONIResult) Separable() bool {
	return r.BestAttack() < r.WorstNonAttack()
}

// RunRONI reproduces the §5.1 experiment: the RONI defense measured
// against dictionary attack variants and ordinary spam/ham training
// candidates.
func RunRONI(env *Env) (*RONIResult, error) {
	cfg := env.Cfg
	r := env.RNG("roni")
	defense, err := core.NewRONI(cfg.RONI, env.Pool, sbayes.DefaultOptions(), env.Tok, r)
	if err != nil {
		return nil, fmt.Errorf("roni: %w", err)
	}
	res := &RONIResult{Config: cfg.RONI}

	// Seven dictionary attack variants, as in the paper: the three
	// full word sources plus random subsets of the two realistic
	// dictionaries. Subset variants redraw their words each
	// repetition, so repetitions vary; full-lexicon variants are
	// deterministic. (Random subsets rather than top-k prefixes keep
	// each variant's coverage proportional across the whole document-
	// frequency spectrum at any experiment scale.)
	type variant struct {
		name  string
		build func(vr *stats.RNG) *mail.Message
	}
	fullAttack := func(lex *lexicon.Lexicon) func(*stats.RNG) *mail.Message {
		msg := core.NewDictionaryAttack(lex).BuildAttack(r)
		return func(*stats.RNG) *mail.Message { return msg }
	}
	randomSubset := func(lex *lexicon.Lexicon, frac float64, name string) variant {
		return variant{name: name, build: func(vr *stats.RNG) *mail.Message {
			words := lex.Words()
			idx := vr.Sample(len(words), int(frac*float64(len(words))))
			sub := make([]string, len(idx))
			for i, j := range idx {
				sub[i] = words[j]
			}
			return &mail.Message{Body: core.BodyFromWords(sub, 12)}
		}}
	}
	union := lexicon.New("aspell+usenet", append(append([]string{}, env.Aspell.Words()...), env.Usenet.Words()...))
	variants := []variant{
		{name: "optimal", build: fullAttack(env.Optimal)},
		{name: "aspell", build: fullAttack(env.Aspell)},
		{name: env.Usenet.Name(), build: fullAttack(env.Usenet)},
		{name: union.Name(), build: fullAttack(union)},
		randomSubset(env.Aspell, 0.75, "aspell-3q"),
		randomSubset(env.Usenet, 0.75, "usenet-3q"),
		randomSubset(env.Usenet, 0.50, "usenet-half"),
	}

	for vi, v := range variants {
		vres := RONIVariantResult{Variant: v.name}
		for rep := 0; rep < cfg.RONIAttackReps; rep++ {
			vr := r.Split(fmt.Sprintf("variant%d-rep%d", vi, rep))
			msg := v.build(vr)
			impact := defense.MeasureImpact(msg, true)
			vres.HamAsHamDeltas = append(vres.HamAsHamDeltas, impact.HamAsHamDelta)
			if impact.HamAsHamDelta <= -cfg.RONI.Threshold {
				vres.Rejected++
			}
		}
		res.Variants = append(res.Variants, vres)
	}

	// Non-attack controls: ordinary spam (the paper's 120) and ham.
	spamPool := env.Pool.Spam()
	hamPool := env.Pool.Ham()
	for i, idx := range r.Sample(len(spamPool), min(cfg.RONINonAttack, len(spamPool))) {
		_ = i
		impact := defense.MeasureImpact(spamPool[idx], true)
		res.NonAttackSpamDeltas = append(res.NonAttackSpamDeltas, impact.HamAsHamDelta)
		if impact.HamAsHamDelta <= -cfg.RONI.Threshold {
			res.NonAttackSpamRejected++
		}
	}
	for _, idx := range r.Sample(len(hamPool), min(cfg.RONINonAttack, len(hamPool))) {
		impact := defense.MeasureImpact(hamPool[idx], false)
		res.NonAttackHamDeltas = append(res.NonAttackHamDeltas, impact.HamAsHamDelta)
		if impact.HamAsHamDelta <= -cfg.RONI.Threshold {
			res.NonAttackHamRejected++
		}
	}

	// Focused attack emails: the paper's negative result — RONI
	// cannot tell them from ordinary spam. One attack email per
	// target at the fixed knowledge level.
	targets := r.Sample(len(hamPool), min(cfg.FocusedTargets, len(hamPool)))
	for ti, idx := range targets {
		attack, err := core.NewFocusedAttack(hamPool[idx], cfg.FixedGuessProb, spamPool)
		if err != nil {
			return nil, err
		}
		msg := attack.BuildAttack(r.Split(fmt.Sprintf("focused-%d", ti)))
		impact := defense.MeasureImpact(msg, true)
		res.FocusedDeltas = append(res.FocusedDeltas, impact.HamAsHamDelta)
		if impact.HamAsHamDelta <= -cfg.RONI.Threshold {
			res.FocusedRejected++
		}
	}
	return res, nil
}

// Render prints the §5.1 statistics.
func (r *RONIResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "RONI defense (§5.1): train=%d, validation=%d, %d trials, threshold=%.1f ham-as-ham.\n",
		r.Config.TrainSize, r.Config.ValSize, r.Config.Trials, r.Config.Threshold)
	t := eval.NewTable("candidate", "reps", "mean Δham-as-ham", "min", "max", "rejected")
	for _, v := range r.Variants {
		s := v.Summary()
		t.AddRow(v.Variant, fmt.Sprintf("%d", s.N),
			fmt.Sprintf("%+.2f", s.Mean), fmt.Sprintf("%+.2f", s.Min), fmt.Sprintf("%+.2f", s.Max),
			fmt.Sprintf("%d/%d (%s)", v.Rejected, s.N, pct(v.DetectionRate())))
	}
	ss := stats.Summarize(r.NonAttackSpamDeltas)
	t.AddRow("non-attack spam", fmt.Sprintf("%d", ss.N),
		fmt.Sprintf("%+.2f", ss.Mean), fmt.Sprintf("%+.2f", ss.Min), fmt.Sprintf("%+.2f", ss.Max),
		fmt.Sprintf("%d/%d", r.NonAttackSpamRejected, ss.N))
	hs := stats.Summarize(r.NonAttackHamDeltas)
	t.AddRow("non-attack ham", fmt.Sprintf("%d", hs.N),
		fmt.Sprintf("%+.2f", hs.Mean), fmt.Sprintf("%+.2f", hs.Min), fmt.Sprintf("%+.2f", hs.Max),
		fmt.Sprintf("%d/%d", r.NonAttackHamRejected, hs.N))
	fs := stats.Summarize(r.FocusedDeltas)
	t.AddRow("focused attack", fmt.Sprintf("%d", fs.N),
		fmt.Sprintf("%+.2f", fs.Mean), fmt.Sprintf("%+.2f", fs.Min), fmt.Sprintf("%+.2f", fs.Max),
		fmt.Sprintf("%d/%d", r.FocusedRejected, fs.N))
	b.WriteString(t.String())
	fmt.Fprintf(&b, "attack emails cost at least %.1f ham-as-ham on average; ", -r.BestAttack())
	fmt.Fprintf(&b, "non-attack spam at most %.1f.\n", -r.WorstNonAttack())
	if r.Separable() {
		b.WriteString("attack and non-attack impacts are separable by a threshold, as in the paper.\n")
	} else {
		b.WriteString("WARNING: impacts are not cleanly separable at this scale.\n")
	}
	fmt.Fprintf(&b, "focused attack emails flagged: %d/%d — RONI fails to differentiate them (paper §5.1).\n",
		r.FocusedRejected, len(r.FocusedDeltas))
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
