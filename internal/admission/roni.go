package admission

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/mail"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/tokenize"
)

// IncrementalRONIConfig tunes the budgeted incremental RONI admitter.
type IncrementalRONIConfig struct {
	// RONI is the impact-measurement parameterization (trial count,
	// sample sizes, rejection threshold). The zero value selects
	// core.DefaultRONIConfig — the paper's §5.1 numbers.
	RONI core.RONIConfig
	// BudgetPerMessage credits the probe bucket for every Admit call
	// (<= 0 selects 0.05, one probe per twenty arrivals). This is the
	// amortization knob: a week-end batch pass probes every candidate
	// at once; the incremental admitter spends the same measurement a
	// fraction of a probe at a time as mail arrives.
	BudgetPerMessage float64
	// Burst caps unspent accumulated budget and is the starting level,
	// so a fresh admitter can probe the first arrivals immediately
	// (<= 0 selects 8).
	Burst float64
}

// DefaultIncrementalRONIConfig returns the standard amortization: the
// paper's RONI parameters, a twentieth of a probe per arrival, burst 8.
func DefaultIncrementalRONIConfig() IncrementalRONIConfig {
	return IncrementalRONIConfig{
		RONI:             core.DefaultRONIConfig(),
		BudgetPerMessage: 0.05,
		Burst:            8,
	}
}

// withDefaults resolves the zero values.
func (c IncrementalRONIConfig) withDefaults() IncrementalRONIConfig {
	if c.RONI == (core.RONIConfig{}) {
		c.RONI = core.DefaultRONIConfig()
	}
	if c.BudgetPerMessage <= 0 {
		c.BudgetPerMessage = 0.05
	}
	if c.Burst <= 0 {
		c.Burst = 8
	}
	return c
}

// IncrementalRONIStats is a point-in-time snapshot of the admitter's
// accounting. Every counter except Bucket is monotone nondecreasing,
// and the budget invariant Probes <= Burst + CreditsGranted holds at
// all times — a probe can only spend budget that was credited.
type IncrementalRONIStats struct {
	// Arrivals is the number of Admit calls.
	Arrivals uint64
	// Probes is the number of impact measurements actually run — the
	// expensive clone-and-probe passes. This is the number to compare
	// against a week-end batch pass, which spends one probe per
	// distinct weekly candidate.
	Probes uint64
	// MemoHits counts verdicts served from the memo, which is keyed by
	// the candidate's token-stream digest and training label: a
	// replicated attack payload is probed once and every further copy —
	// a distinct message with the same tokens, or a copy resumed from a
	// record — is free.
	MemoHits uint64
	// Deferred counts candidates quarantined because the bucket was
	// empty when they arrived.
	Deferred uint64
	// Refreshes counts calibration-pool rebuilds. The online simulator
	// refreshes at every publish; the serving daemon does not yet, so
	// its count stays 0.
	Refreshes uint64
	// CreditsGranted is the total budget ever credited (per-arrival
	// drip plus explicit Grant calls).
	CreditsGranted float64
	// Bucket is the current unspent budget (not monotone).
	Bucket float64
}

// admitKey memoizes verdicts by payload and training label. The
// payload is identified by its token stream's digest, so two copies of
// a replicated attack memo-hit even when they arrive as distinct
// *mail.Message values — or when one of them was held across a
// restart.
type admitKey struct {
	digest uint64
	spam   bool
}

// IncrementalRONI is the §5.1 Reject On Negative Impact defense run
// incrementally as messages arrive instead of as a week-end batch: it
// reuses core.RONI's clone-and-probe impact measurement against a
// calibration pool sampled from the trusted store, but spends probes
// from an amortized token bucket credited per arrival. When the bucket
// is empty the candidate is quarantined rather than admitted
// unvetted — the expensive decision is deferred to the next snapshot
// swap, where the buffer is reviewed with fresh budget.
//
// Verdicts from actual probes are memoized by payload — the token
// stream's digest — so the paper's replicated attacks (n copies of one
// dictionary email) cost one probe total; deferrals are not memoized,
// so a later copy can be probed once budget accrues, and a copy held
// before it is then decided from the memo at review.
type IncrementalRONI struct {
	mu      sync.Mutex
	cfg     IncrementalRONIConfig
	factory engine.Factory
	roni    *core.RONI
	memo    map[admitKey]Decision
	bucket  float64

	arrivals  uint64
	probes    uint64
	memoHits  uint64
	deferred  uint64
	refreshes uint64
	credits   float64
}

// NewIncrementalRONI builds the admitter over a calibration pool (the
// deployment's trusted mail store): trial training and validation sets
// are sampled from it exactly as the batch defense samples them, so on
// the same pool, seed, and configuration the incremental admitter's
// probe verdicts match a core.RONI batch pass verdict for verdict.
func NewIncrementalRONI(cfg IncrementalRONIConfig, pool *corpus.Corpus, factory engine.Factory, r *stats.RNG) (*IncrementalRONI, error) {
	cfg = cfg.withDefaults()
	roni, err := core.NewRONIBackend(cfg.RONI, pool, factory, r)
	if err != nil {
		return nil, fmt.Errorf("admission: %w", err)
	}
	return &IncrementalRONI{
		cfg:     cfg,
		factory: factory,
		roni:    roni,
		memo:    make(map[admitKey]Decision),
		bucket:  cfg.Burst,
	}, nil
}

// Name identifies the admitter and its amortization rate.
func (a *IncrementalRONI) Name() string {
	return fmt.Sprintf("roni-inc-%.3g/msg", a.cfg.BudgetPerMessage)
}

// Config returns the resolved configuration.
func (a *IncrementalRONI) Config() IncrementalRONIConfig { return a.cfg }

// Stats snapshots the accounting.
func (a *IncrementalRONI) Stats() IncrementalRONIStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return IncrementalRONIStats{
		Arrivals:       a.arrivals,
		Probes:         a.probes,
		MemoHits:       a.memoHits,
		Deferred:       a.deferred,
		Refreshes:      a.refreshes,
		CreditsGranted: a.credits,
		Bucket:         a.bucket,
	}
}

// Register exposes the admitter's accounting on a metrics registry as
// scrape-time sampled functions: the counters live under the
// admitter's own lock (Stats() reads them consistently), so mirroring
// them into stored instruments on every Admit would duplicate state
// the lock already owns. The budget gauge is the operator's
// early-warning line — a poisoning campaign drains it to zero and
// pins deferrals climbing — and the memo hit ratio shows replicated
// attacks being amortized. No-op on a nil registry.
func (a *IncrementalRONI) Register(reg *obs.Registry) {
	l := obs.L("admitter", "roni")
	reg.CounterFunc("admission_roni_arrivals_total", "Admit calls", func() float64 { return float64(a.Stats().Arrivals) }, l)
	reg.CounterFunc("admission_roni_probes_total", "impact measurements actually run (clone-and-probe passes)", func() float64 { return float64(a.Stats().Probes) }, l)
	reg.CounterFunc("admission_roni_memo_hits_total", "verdicts served from the payload-identity cache", func() float64 { return float64(a.Stats().MemoHits) }, l)
	reg.CounterFunc("admission_roni_deferred_total", "candidates quarantined because the probe budget was empty", func() float64 { return float64(a.Stats().Deferred) }, l)
	reg.CounterFunc("admission_roni_refreshes_total", "calibration-pool rebuilds", func() float64 { return float64(a.Stats().Refreshes) }, l)
	reg.CounterFunc("admission_roni_credits_total", "total probe budget ever credited", func() float64 { return a.Stats().CreditsGranted }, l)
	reg.GaugeFunc("admission_roni_budget", "current unspent probe budget", func() float64 { return a.Stats().Bucket }, l)
	reg.GaugeFunc("admission_roni_memo_hit_ratio", "fraction of arrivals served from the memo", func() float64 {
		s := a.Stats()
		if s.Arrivals == 0 {
			return 0
		}
		return float64(s.MemoHits) / float64(s.Arrivals)
	}, l)
}

// Grant credits extra probe budget outside the per-arrival drip — the
// end-of-interval slack a deployment grants at each snapshot swap so
// the quarantine review has probes to spend.
func (a *IncrementalRONI) Grant(n float64) {
	if n <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.credits += n
	a.bucket += n
}

// Refresh re-samples the calibration pool — the rolling part of the
// rolling calibration pool: at each snapshot swap the deployment hands
// the admitter its grown trusted store, so impact is always measured
// against what the filter currently believes. Memoized verdicts are
// cleared (they were measured against the old baseline).
func (a *IncrementalRONI) Refresh(pool *corpus.Corpus, r *stats.RNG) error {
	roni, err := core.NewRONIBackend(a.cfg.RONI, pool, a.factory, r)
	if err != nil {
		return fmt.Errorf("admission: refresh: %w", err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.roni = roni
	a.memo = make(map[admitKey]Decision)
	a.refreshes++
	return nil
}

// Admit credits the bucket, serves memoized verdicts for free, probes
// when the budget allows, and quarantines otherwise. The probe holds
// the admitter's lock — the evaluator reuses per-trial scratch during
// measurement — so concurrent Admit calls serialize; the per-call cost
// is what the budget is for.
func (a *IncrementalRONI) Admit(_ context.Context, m *mail.Message, ts *tokenize.TokenStream, spam bool) Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.arrivals++
	a.credits += a.cfg.BudgetPerMessage
	// The per-arrival drip accrues only up to Burst; budget above it
	// (from an explicit Grant) is preserved, never clamped away — a
	// swap-time review grant must survive the review's own Admit calls.
	if a.bucket < a.cfg.Burst {
		a.bucket += a.cfg.BudgetPerMessage
		if a.bucket > a.cfg.Burst {
			a.bucket = a.cfg.Burst
		}
	}
	key := admitKey{digest: ts.Digest(), spam: spam}
	if d, ok := a.memo[key]; ok {
		a.memoHits++
		return d
	}
	if a.bucket < 1 {
		a.deferred++
		return Decision{Verdict: Held, Reason: "roni: probe budget exhausted"}
	}
	a.bucket--
	a.probes++
	imp := a.roni.MeasureImpactStream(m, ts, spam)
	d := Decision{Verdict: Accepted, Reason: fmt.Sprintf("roni: ham-as-ham delta %+.2f", imp.HamAsHamDelta)}
	if imp.HamAsHamDelta <= -a.cfg.RONI.Threshold {
		d = Decision{Verdict: Rejected, Reason: fmt.Sprintf("roni: ham-as-ham delta %+.2f breaches -%.2f", imp.HamAsHamDelta, a.cfg.RONI.Threshold)}
	}
	a.memo[key] = d
	return d
}
