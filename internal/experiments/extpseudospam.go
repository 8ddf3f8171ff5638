package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/mail"
	"repro/internal/sbayes"
)

// PseudospamPoint aggregates outcomes at one attack volume.
type PseudospamPoint struct {
	Fraction  float64
	NumAttack int
	// Future-spam verdicts after the attack.
	SpamAsHam    int
	SpamAsUnsure int
	SpamAsSpam   int
	// HamConfusion tracks collateral damage on legitimate mail.
	HamConfusion eval.Confusion
}

// DeliveredRate is the fraction of the attacker's future spam that
// reaches the inbox (classified ham).
func (p PseudospamPoint) DeliveredRate() float64 {
	t := p.SpamAsHam + p.SpamAsUnsure + p.SpamAsSpam
	if t == 0 {
		return 0
	}
	return float64(p.SpamAsHam) / float64(t)
}

// NotBlockedRate is the fraction not classified spam.
func (p PseudospamPoint) NotBlockedRate() float64 {
	t := p.SpamAsHam + p.SpamAsUnsure + p.SpamAsSpam
	if t == 0 {
		return 0
	}
	return float64(p.SpamAsHam+p.SpamAsUnsure) / float64(t)
}

// PseudospamResult is the §2.2-extension experiment: ham-labeled
// attack emails that whitewash the vocabulary of the attacker's
// future spam (a Causative Integrity attack — the paper's main body
// is all Causative Availability).
type PseudospamResult struct {
	InboxSize int
	Targets   int
	Baseline  PseudospamPoint
	Points    []PseudospamPoint
}

// RunPseudospam runs the extension experiment: a clean inbox is
// poisoned with n ham-labeled attack emails carrying the future
// spam's vocabulary; the future spam's verdicts and the collateral
// effect on legitimate mail are measured per attack volume.
func RunPseudospam(env *Env) (*PseudospamResult, error) {
	cfg := env.Cfg
	r := env.RNG("pseudospam")
	inbox, err := env.Pool.SampleInbox(r, cfg.FocusedInbox, cfg.SpamPrevalence)
	if err != nil {
		return nil, fmt.Errorf("pseudospam: %w", err)
	}
	filter := eval.TrainFilter(inbox, sbayes.DefaultOptions(), env.Tok)

	future := make([]*mail.Message, cfg.FocusedTargets)
	for i := range future {
		future[i] = env.Gen.SpamMessage(r)
	}
	hamProbeCorpus := env.Gen.Corpus(r, cfg.FocusedTargets*5, 0)
	hamProbes := eval.StreamCorpus(hamProbeCorpus, env.Tok)

	attack, err := core.NewPseudospamAttack(future, inbox.Ham())
	if err != nil {
		return nil, err
	}
	attackStream := env.Tok.Stream(attack.BuildAttack(r))

	measure := func() PseudospamPoint {
		var p PseudospamPoint
		for _, m := range future {
			switch l, _ := filter.Classify(m); l {
			case sbayes.Ham:
				p.SpamAsHam++
			case sbayes.Unsure:
				p.SpamAsUnsure++
			default:
				p.SpamAsSpam++
			}
		}
		p.HamConfusion = eval.EvaluateStreamSet(filter, hamProbes)
		return p
	}

	res := &PseudospamResult{InboxSize: cfg.FocusedInbox, Targets: cfg.FocusedTargets}
	res.Baseline = measure()
	trained := 0
	for _, frac := range cfg.PseudospamFractions {
		n := core.AttackSize(frac, cfg.FocusedInbox)
		if n > trained {
			filter.LearnTokenStream(attackStream, false, n-trained) //sbvet:unguarded the attack injection being measured, trained as HAM: the experiment trains the poison in deliberately
			trained = n
		}
		point := measure()
		point.Fraction = frac
		point.NumAttack = n
		res.Points = append(res.Points, point)
	}
	if err := filter.UnlearnTokenStream(attackStream, false, trained); err != nil {
		return nil, fmt.Errorf("pseudospam: restoring filter: %w", err)
	}
	return res, nil
}

// Render prints the volume sweep.
func (r *PseudospamResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXTENSION — pseudospam (ham-labeled) attack, §2.2 remark.\n")
	fmt.Fprintf(&b, "%d-message inbox; %d future spam messages to deliver.\n", r.InboxSize, r.Targets)
	t := eval.NewTable("atk%", "#atk", "spam delivered", "spam not blocked", "ham as ham")
	t.AddRow("0.0", "0",
		pct(r.Baseline.DeliveredRate()),
		pct(r.Baseline.NotBlockedRate()),
		pct(1-r.Baseline.HamConfusion.HamMisclassifiedRate()))
	for _, p := range r.Points {
		t.AddRow(
			fmt.Sprintf("%.1f", 100*p.Fraction),
			fmt.Sprintf("%d", p.NumAttack),
			pct(p.DeliveredRate()),
			pct(p.NotBlockedRate()),
			pct(1-p.HamConfusion.HamMisclassifiedRate()))
	}
	b.WriteString(t.String())
	b.WriteString("ham-labeled attack emails place the attacker's spam in the inbox while leaving\n")
	b.WriteString("legitimate mail untouched — the Integrity counterpart the paper flags in §2.2.\n")
	return b.String()
}
