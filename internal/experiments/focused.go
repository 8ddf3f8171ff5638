package experiments

import (
	"fmt"

	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/mail"
	"repro/internal/sbayes"
	"repro/internal/stats"
)

// focusedRep is one repetition of the focused-attack methodology
// (§4.3): a clean inbox sampled from the pool, a filter trained on
// it, and target ham emails drawn from the pool but not present in
// the inbox.
type focusedRep struct {
	filter  *sbayes.Filter
	inbox   *corpus.Corpus
	spam    []*mail.Message // header pool for attack emails
	targets []*mail.Message
}

// newFocusedRep builds one repetition.
func (e *Env) newFocusedRep(r *stats.RNG) (*focusedRep, error) {
	cfg := e.Cfg
	inbox, err := e.Pool.SampleInbox(r, cfg.FocusedInbox, cfg.SpamPrevalence)
	if err != nil {
		return nil, err
	}
	rep := &focusedRep{
		inbox:  inbox,
		filter: eval.TrainFilter(inbox, sbayes.DefaultOptions(), e.Tok),
		spam:   inbox.Spam(),
	}
	// Targets: pool ham not in the training inbox, as in the paper
	// (the target is a future email the victim has not yet received).
	inInbox := make(map[*mail.Message]bool, inbox.Len())
	for _, ex := range inbox.Examples {
		inInbox[ex.Msg] = true
	}
	var candidates []*mail.Message
	for _, m := range e.Pool.Ham() {
		if !inInbox[m] {
			candidates = append(candidates, m)
		}
	}
	if len(candidates) < cfg.FocusedTargets {
		return nil, fmt.Errorf("experiments: only %d candidate targets, need %d",
			len(candidates), cfg.FocusedTargets)
	}
	for _, i := range r.Sample(len(candidates), cfg.FocusedTargets) {
		rep.targets = append(rep.targets, candidates[i])
	}
	return rep, nil
}

// attackAndClassify trains n copies of the attack email, classifies
// the target, and restores the filter exactly.
func (rep *focusedRep) attackAndClassify(e *Env, attackMsg *mail.Message, n int, target *mail.Message) sbayes.Label {
	ts := e.Tok.Stream(attackMsg)
	rep.filter.LearnTokenStream(ts, true, n) //sbvet:unguarded the attack injection being measured: the experiment trains the poison in deliberately
	label, _ := rep.filter.Classify(target)
	if err := rep.filter.UnlearnTokenStream(ts, true, n); err != nil {
		panic(fmt.Sprintf("experiments: unlearn after focused attack: %v", err))
	}
	return label
}
