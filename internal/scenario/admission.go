package scenario

// Online admission control: RunOnline's inline rendition of the
// training-data defenses. Where UseRONI scrubs each week's candidates
// in one week-end batch pass, Config.Admission vets every candidate
// as it arrives through an engine.Guarded pipeline —
// TokenFloodGate → budgeted IncrementalRONI → Quarantine — and runs
// the swap-time defenses (dynamic-threshold refit, quarantine review,
// calibration-pool refresh) through the guard's publish hooks at
// every snapshot swap.

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/mail"
	"repro/internal/stats"
	"repro/internal/tokenize"
)

// AdmissionConfig parameterizes RunOnline's inline vetting pipeline;
// &AdmissionConfig{} is a complete policy. The admitters run at the
// admission package's defaults (the paper's §5.1 RONI numbers, a
// twentieth of a probe per arrival with a burst of 8, an unbounded
// quarantine that drops a candidate still undecided after two
// reviews), and every publish grants the quarantine review 4 probes
// and refits the dynamic thresholds (§5.2) at a utility of 0.10 on a
// 200-message sample of the trusted store.
type AdmissionConfig struct {
	// FloodGateMaxDistinct is the structural pre-filter's
	// distinct-token reject bound (<= 0 selects 1024).
	FloodGateMaxDistinct int
}

// The swap-time defenses' constants.
const (
	// swapGrant is the probe budget granted at each snapshot swap, so
	// the quarantine review has probes to spend.
	swapGrant = 4
	// refitUtility is the dynamic-threshold g-target refit at every
	// publish (§5.2).
	refitUtility = 0.10
	// refitSample is the calibration-sample size drawn from the trusted
	// store at each refit.
	refitSample = 200
)

// Validate checks the configuration.
func (c AdmissionConfig) Validate() error {
	if c.FloodGateMaxDistinct < 0 {
		return fmt.Errorf("scenario: FloodGateMaxDistinct %d", c.FloodGateMaxDistinct)
	}
	return nil
}

// AdmissionWeek is one week's inline-vetting outcome, with every
// decision attributed organic vs. attack by message identity — the
// comparison row against the batch defense's AttackRejected /
// OrganicRejected columns.
type AdmissionWeek struct {
	// Admission decisions over the week's arrivals.
	OrganicAdmitted    int
	OrganicQuarantined int
	OrganicRejected    int
	AttackAdmitted     int
	AttackQuarantined  int
	AttackRejected     int
	// Probes is the number of impact measurements the incremental
	// admitter actually ran this week (including swap-review probes).
	Probes int
	// BatchProbeEquivalent is what one week-end batch RONI pass over
	// the same candidates would have spent: one probe per distinct
	// (message, label) candidate.
	BatchProbeEquivalent int
	// Released and Dropped are the quarantine-review outcomes at this
	// week's snapshot swaps.
	Released int
	Dropped  int
	// Theta0 and Theta1 are the serving cutoffs after this week's last
	// dynamic-threshold refit (zero before the first refit).
	Theta0 float64
	Theta1 float64
}

// onlineAdmission bundles the concrete pipeline RunOnline wires into
// its guard: the chain, the quarantine, the publish hooks, and the
// mutable swap-time state those hooks feed back into the weekly
// reports.
type onlineAdmission struct {
	roni     *admission.IncrementalRONI
	gate     *admission.TokenFloodGate
	chain    *admission.Chain
	buffer   *admission.Quarantine
	guardCfg engine.GuardedConfig

	// mu orders hook state against the delivery loop. The scenario's
	// publish points are fixed in simulated time, so the lock is for
	// safety (a guard runs its hooks on whichever goroutine publishes),
	// not for determinism — determinism comes from the fixed swap
	// points.
	mu sync.Mutex
	// theta0/theta1 are the cutoffs of the most recent refit.
	theta0, theta1 float64
	// released accumulates quarantine-review releases since the last
	// week-end drain; they join the kept mail for the next retrain.
	released *corpus.Corpus
	// releasedN/droppedN count review outcomes since the last drain.
	releasedN, droppedN int
}

// newOnlineAdmission builds the pipeline over the deployment's
// trusted store. The refit and review hooks close over store (which
// RunOnline grows in place week by week) and draw their randomness
// from ar, so the trace stays deterministic: hooks fire at fixed
// points in simulated time.
func newOnlineAdmission(cfg AdmissionConfig, backend engine.Backend, store *corpus.Corpus, spamPrevalence float64, ar *stats.RNG) (*onlineAdmission, error) {
	roni, err := admission.NewIncrementalRONI(admission.IncrementalRONIConfig{}, store, backend.New, ar.Split("pool-0"))
	if err != nil {
		return nil, fmt.Errorf("scenario: admission: %w", err)
	}
	gate := admission.NewTokenFloodGate(admission.FloodGateConfig{MaxDistinct: cfg.FloodGateMaxDistinct})
	a := &onlineAdmission{
		roni:     roni,
		gate:     gate,
		chain:    admission.NewChain(gate, roni),
		buffer:   admission.NewQuarantine(admission.QuarantineConfig{}),
		released: &corpus.Corpus{},
	}

	// Swap-time defenses, in hook order: the refit mutates each
	// replacement before it serves; the post-publish review refreshes
	// the calibration pool from the grown store, grants the review
	// budget, and re-vets the quarantine.
	var refits, reviews int
	d := core.DynamicThreshold{Utility: refitUtility}
	a.guardCfg.PrePublish = append(a.guardCfg.PrePublish, func(next engine.Classifier) error {
		a.mu.Lock()
		defer a.mu.Unlock()
		calib, err := store.SampleInbox(ar.Split(fmt.Sprintf("refit-%d", refits)), min(refitSample, store.Len()), spamPrevalence)
		if err != nil {
			return err
		}
		refits++
		t0, t1, err := d.Refit(next, calib)
		if err != nil {
			return err
		}
		a.theta0, a.theta1 = t0, t1
		return nil
	})
	a.guardCfg.PostPublish = append(a.guardCfg.PostPublish, func() {
		a.mu.Lock()
		defer a.mu.Unlock()
		// The pool rolls forward: impact is measured against what the
		// filter now trusts. A refresh failure keeps the old pool — the
		// store only grows, so the sample that built it stays valid.
		_ = a.roni.Refresh(store, ar.Split(fmt.Sprintf("pool-%d", reviews+1)))
		reviews++
		a.roni.Grant(swapGrant)
		released, dropped := a.buffer.Review(func(m *mail.Message, ts *tokenize.TokenStream, spam bool) admission.Decision {
			return a.chain.Admit(context.Background(), m, ts, spam)
		})
		for _, h := range released {
			a.released.Add(h.Msg, h.Spam)
		}
		a.releasedN += len(released)
		a.droppedN += dropped
	})
	a.guardCfg.Quarantine = a.buffer
	return a, nil
}

// countWeek attributes one decision into the week's report.
func (a *onlineAdmission) countWeek(w *AdmissionWeek, d engine.AdmitDecision, attack bool) {
	switch d.Verdict {
	case engine.AdmitAccept:
		if attack {
			w.AttackAdmitted++
		} else {
			w.OrganicAdmitted++
		}
	case engine.AdmitQuarantine:
		if attack {
			w.AttackQuarantined++
		} else {
			w.OrganicQuarantined++
		}
	default:
		if attack {
			w.AttackRejected++
		} else {
			w.OrganicRejected++
		}
	}
}

// drainWeek moves the swap-time accumulators into the week's report
// and returns the released mail (which joins the kept corpus for the
// next retrain).
func (a *onlineAdmission) drainWeek(w *AdmissionWeek) *corpus.Corpus {
	a.mu.Lock()
	defer a.mu.Unlock()
	w.Released = a.releasedN
	w.Dropped = a.droppedN
	w.Theta0, w.Theta1 = a.theta0, a.theta1
	released := a.released
	a.released = &corpus.Corpus{}
	a.releasedN, a.droppedN = 0, 0
	return released
}

// distinctCandidates counts the distinct (message, label) pairs of a
// weekly corpus — the probes one memoized week-end batch RONI pass
// would spend on it.
func distinctCandidates(c *corpus.Corpus) int {
	type key struct {
		msg  *mail.Message
		spam bool
	}
	seen := make(map[key]struct{}, c.Len())
	for _, e := range c.Examples {
		seen[key{e.Msg, e.Spam}] = struct{}{}
	}
	return len(seen)
}

// feedbackAttacker returns the attack's dose-adaptation capability, or
// an error naming the attack (shared by Validate and the online loops
// so the checks cannot drift).
func feedbackAttacker(a core.Attacker) (core.FeedbackAttacker, error) {
	f, ok := a.(core.FeedbackAttacker)
	if !ok {
		return nil, fmt.Errorf("scenario: attack %q cannot adapt its dose", a.Name())
	}
	return f, nil
}

// attackDose returns the fraction of the weekly volume this week's
// attack claims: the configured fraction, scaled by the adaptive
// attacker's learned multiplier when Config.AttackAdaptive is set.
func attackDose(cfg Config) float64 {
	if cfg.AttackAdaptive {
		if fa, err := feedbackAttacker(cfg.Attack); err == nil {
			return fa.Dose(cfg.AttackFraction)
		}
	}
	return cfg.AttackFraction
}

// observeAttackFeedback reports the week's poison fate to an adaptive
// attacker: accepted is what entered (or will enter) training —
// arrivals minus rejections and quarantines.
func observeAttackFeedback(cfg Config, arrived, rejectedOrHeld int) {
	if !cfg.AttackAdaptive || arrived == 0 {
		return
	}
	if fa, err := feedbackAttacker(cfg.Attack); err == nil {
		fa.ObserveFeedback(arrived, arrived-rejectedOrHeld)
	}
}

// renderAdmissionTable appends the per-week inline-vetting trace to an
// online render.
func renderAdmissionTable(b *strings.Builder, r *OnlineResult) {
	t := eval.NewTable("week", "adm o/a", "quar o/a", "rej o/a", "probes", "batch-eq", "rel", "drop", "θ0", "θ1")
	totalProbes, maxBatch := 0, 0
	for _, w := range r.Weeks {
		a := w.Admission
		if a == nil {
			continue
		}
		totalProbes += a.Probes
		if a.BatchProbeEquivalent > maxBatch {
			maxBatch = a.BatchProbeEquivalent
		}
		t.AddRow(
			fmt.Sprintf("%d", w.Week),
			fmt.Sprintf("%d/%d", a.OrganicAdmitted, a.AttackAdmitted),
			fmt.Sprintf("%d/%d", a.OrganicQuarantined, a.AttackQuarantined),
			fmt.Sprintf("%d/%d", a.OrganicRejected, a.AttackRejected),
			fmt.Sprintf("%d", a.Probes),
			fmt.Sprintf("%d", a.BatchProbeEquivalent),
			fmt.Sprintf("%d", a.Released),
			fmt.Sprintf("%d", a.Dropped),
			fmt.Sprintf("%.2f", a.Theta0),
			fmt.Sprintf("%.2f", a.Theta1))
	}
	b.WriteString("inline admission (o/a = organic/attack; batch-eq = probes one week-end batch RONI pass would spend):\n")
	b.WriteString(t.String())
	fmt.Fprintf(b, "total probes %d over %d weeks vs. %d for a single week-end batch pass\n",
		totalProbes, len(r.Weeks), maxBatch)
}
