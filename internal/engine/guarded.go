package engine

// Admission control for the training path. The paper's causative
// threat model is that poison reaches the filter through training, so
// the serving layer grows a guard: every candidate training example is
// vetted by an Admitter before it can influence a snapshot, and the
// publish path gains hooks so swap-time defenses (dynamic-threshold
// refit, quarantine review) run exactly when a new generation goes
// live.
//
// The admission contract (AdmitVerdict, AdmitDecision, Admitter,
// QuarantineSink) is declared here — the concrete admitters live in
// internal/admission, which aliases these types the way sbayes aliases
// engine.Label — because Guarded must reference it and
// internal/admission already imports this package.

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/corpus"
	"repro/internal/mail"
	"repro/internal/obs"
	"repro/internal/tokenize"
)

// AdmitVerdict is an admission decision's three-way outcome.
type AdmitVerdict int8

const (
	// AdmitAccept admits the example into training.
	AdmitAccept AdmitVerdict = iota
	// AdmitQuarantine holds the example for later review (typically at
	// the next snapshot swap) instead of deciding now — the verdict of
	// an admitter whose probe budget is exhausted.
	AdmitQuarantine
	// AdmitReject drops the example from training.
	AdmitReject
)

// String names the verdict for reasons and traces.
func (v AdmitVerdict) String() string {
	switch v {
	case AdmitAccept:
		return "accept"
	case AdmitQuarantine:
		return "quarantine"
	case AdmitReject:
		return "reject"
	default:
		return fmt.Sprintf("AdmitVerdict(%d)", int(v))
	}
}

// AdmitDecision is one vetted training candidate's outcome.
type AdmitDecision struct {
	Verdict AdmitVerdict
	// Reason is a short human-readable explanation ("token flood: 1810
	// distinct tokens", "roni: impact -7.2", "probe budget exhausted").
	Reason string
}

// Admitter vets candidate training examples before they can influence
// a serving snapshot. Implementations must tolerate concurrent Admit
// calls — the guarded LearnStream is single-consumer, but batch
// vetting and tests exercise admitters from multiple goroutines.
type Admitter interface {
	// Name identifies the admitter in traces.
	Name() string
	// Admit decides one candidate's fate. spam is the label the example
	// would be trained under (the contamination assumption labels
	// attack mail spam; the pseudospam variant labels it ham). ts, when
	// non-nil, is m tokenized once by the caller with the tokenizer the
	// filter would learn it under — admitters consume it instead of
	// re-tokenizing (the tokenize-once contract). A nil ts means the
	// caller holds no stream (a quarantine hold resumed from saved
	// admission state carries none); admitters that need tokens then
	// tokenize m themselves.
	Admit(ctx context.Context, m *mail.Message, ts *tokenize.TokenStream, spam bool) AdmitDecision
}

// QuarantineSink receives examples an Admitter quarantined. The
// concrete buffer (admission.Quarantine) holds them for re-scoring at
// the next snapshot swap; ts (possibly nil) is the candidate's token
// stream, kept alongside so the swap-time review does not re-tokenize.
type QuarantineSink interface {
	Hold(m *mail.Message, ts *tokenize.TokenStream, spam bool, reason string)
}

// AdmissionStats counts one engine's vetted training candidates.
type AdmissionStats struct {
	// Vetted is the total number of admission decisions recorded. It is
	// derived from the three verdict counters inside Stats — every
	// decision lands in exactly one bucket — so Vetted ==
	// Admitted+Quarantined+Rejected holds by construction even against
	// a reader racing in-flight decisions (the same derivation the
	// Classified/ByLabel invariant uses).
	Vetted uint64
	// Admitted counts candidates accepted into training.
	Admitted uint64
	// Quarantined counts candidates held for swap-time review.
	Quarantined uint64
	// Rejected counts candidates dropped from training.
	Rejected uint64
}

// add accumulates o into s field by field, recomputing nothing —
// Vetted sums too because it is itself a sum of the other three.
func (s *AdmissionStats) add(o AdmissionStats) {
	s.Vetted += o.Vetted
	s.Admitted += o.Admitted
	s.Quarantined += o.Quarantined
	s.Rejected += o.Rejected
}

// recordAdmission tallies one decision against the shard's admission
// counters. Guarded calls it on the destination shard of every vetted
// candidate.
func (sh *shard) recordAdmission(v AdmitVerdict) {
	switch v {
	case AdmitAccept:
		sh.admitted.Inc()
	case AdmitReject:
		sh.admitRejected.Inc()
	default:
		sh.quarantined.Inc()
	}
}

// admissionStats snapshots the counters, deriving Vetted from the
// per-verdict loads so the total always equals their sum.
func (sh *shard) admissionStats() AdmissionStats {
	a := AdmissionStats{
		Admitted:    sh.admitted.Value(),
		Quarantined: sh.quarantined.Value(),
		Rejected:    sh.admitRejected.Value(),
	}
	a.Vetted = a.Admitted + a.Quarantined + a.Rejected
	return a
}

// GuardedConfig wires the swap-time defenses into a guarded engine's
// publish path.
type GuardedConfig struct {
	// Quarantine, if non-nil, receives every candidate the admitter
	// quarantines.
	Quarantine QuarantineSink
	// PrePublish hooks run on every replacement classifier after it is
	// built and before it is published — the one moment a swap-time
	// defense may still mutate it (e.g. a dynamic-threshold refit via
	// ThresholdSetter). They run on every shard's replacement before
	// any shard swaps, so a hook error aborts the whole publish,
	// leaving every serving snapshot unchanged.
	PrePublish []func(next Classifier) error
	// PostPublish hooks run once after each publish (a fleet-wide
	// publish counts once, however many shards it swapped) — where
	// quarantine review and admitter-pool refresh belong.
	PostPublish []func()
}

// Guarded threads admission control through an engine's training
// path: LearnStream, Retrain, and RetrainIncremental vet every example
// through the Admitter before it is learned, quarantined examples are
// routed to the configured sink, and every publish runs the
// PrePublish/PostPublish hooks. Scoring (Classify, ClassifyBatch,
// ScoreBatch) passes straight through to the engine and is never
// blocked by admission work — vetting happens on the training path
// only.
//
// The engine may have any number of shards. Mail is vetted once, at
// the gateway, upstream of the partition, and each decision is counted
// against the shard the example would train, so sum(per-shard
// admission counters) == the combined view holds by the same
// aggregation that keeps every other Stats counter honest. Every
// publish replaces the whole epoch, so the engine serves one
// generation across its shards.
type Guarded struct {
	eng   *Engine
	admit Admitter
	cfg   GuardedConfig
}

// NewGuarded wraps e with admission control. The engine keeps its own
// name, generation line and instruments.
func NewGuarded(e *Engine, admit Admitter, cfg GuardedConfig) *Guarded {
	if e == nil {
		panic("engine: NewGuarded with nil engine")
	}
	if admit == nil {
		panic("engine: NewGuarded with nil admitter")
	}
	return &Guarded{eng: e, admit: admit, cfg: cfg}
}

// Engine returns the guarded engine.
func (g *Guarded) Engine() *Engine { return g.eng }

// Admitter returns the vetting policy.
func (g *Guarded) Admitter() Admitter { return g.admit }

// Name returns the engine's stats label.
func (g *Guarded) Name() string { return g.eng.Name() }

// Classify routes and scores one message against the current epoch,
// unguarded — admission vets training, never scoring.
func (g *Guarded) Classify(m *mail.Message) Result { return g.eng.Classify(m) }

// ClassifyBatch passes straight through to the engine; admission work
// never blocks it.
func (g *Guarded) ClassifyBatch(ctx context.Context, msgs []*mail.Message) ([]Result, error) {
	return g.eng.ClassifyBatch(ctx, msgs)
}

// ScoreBatch passes straight through to the engine.
func (g *Guarded) ScoreBatch(ctx context.Context, msgs []*mail.Message) ([]float64, uint64, error) {
	return g.eng.ScoreBatch(ctx, msgs)
}

// Generation returns the serving epoch's generation.
func (g *Guarded) Generation() uint64 { return g.eng.Generation() }

// Stats returns the engine's counters, including the admission tallies
// this guard recorded on each shard.
func (g *Guarded) Stats() Stats { return g.eng.Stats() }

// Vet runs one candidate through the admitter, records the decision in
// the admission counters of the shard the candidate routes to, and
// routes a quarantine verdict to the configured sink. It is the
// tokenizing adapter over VetStream: the candidate is tokenized once
// here, with that shard's serving tokenizer, and the same stream feeds
// the admitter and the quarantine sink. Callers already holding the
// stream call VetStream instead.
func (g *Guarded) Vet(ctx context.Context, m *mail.Message, spam bool) AdmitDecision {
	clfs, _ := g.eng.Snapshots()
	return g.VetStream(ctx, m, clfs[g.eng.ShardFor(m)].Tokenizer().Stream(m), spam)
}

// VetStream is the single vetting chokepoint every guarded training
// path shares: it runs one candidate (tokenized once upstream; ts may
// be nil) through the admitter, records the decision against the
// shard the candidate routes to, and routes a quarantine verdict —
// stream and all — to the configured sink. It is exported so a
// deployment that trains through its own machinery (the scenario
// simulator's background rebuilds) can still vet inline without
// re-tokenizing.
func (g *Guarded) VetStream(ctx context.Context, m *mail.Message, ts *tokenize.TokenStream, spam bool) AdmitDecision {
	sh := g.eng.shards[g.eng.ShardFor(m)]
	d := g.admit.Admit(ctx, m, ts, spam)
	sh.recordAdmission(d.Verdict)
	if ts != nil {
		if digest := ts.Digest(); g.eng.trace.Sampled(digest) {
			g.eng.trace.Record(obs.TraceEvent{
				Kind: obs.TraceAdmit, Digest: digest, Generation: g.eng.Generation(),
				Shard: sh.index, Verdict: d.Verdict.String(), Reason: d.Reason,
			})
		}
	}
	if d.Verdict == AdmitQuarantine && g.cfg.Quarantine != nil {
		g.cfg.Quarantine.Hold(m, ts, spam, d.Reason)
	}
	return d
}

// tokFor resolves each shard's serving tokenizer once and returns the
// per-message routing view of them, so batch vetting and the guarded
// stream tokenize each candidate exactly once with the tokenizer of
// the shard that would train it.
func (g *Guarded) tokFor() func(*mail.Message) *tokenize.Tokenizer {
	toks := g.eng.cur.Load().tokenizers()
	return func(m *mail.Message) *tokenize.Tokenizer { return toks[g.eng.ShardFor(m)] }
}

// VetCorpus vets every example of c in corpus order, returning the
// admitted subset (unpartitioned — the training paths route it).
// Quarantined examples go to the sink; rejected ones are dropped. Each
// example is tokenized exactly once, for the vetting decision and the
// sink together. It checks ctx between examples.
func (g *Guarded) VetCorpus(ctx context.Context, c *corpus.Corpus) (*corpus.Corpus, error) {
	tokFor := g.tokFor()
	kept := &corpus.Corpus{}
	for _, ex := range c.Examples {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if g.VetStream(ctx, ex.Msg, tokFor(ex.Msg).Stream(ex.Msg), ex.Spam).Verdict == AdmitAccept {
			kept.Add(ex.Msg, ex.Spam)
		}
	}
	return kept, nil
}

// publish runs the PrePublish hooks on every shard's replacement,
// publishes the replacements as the next epoch, then runs the
// PostPublish hooks once. A PrePublish error aborts before anything is
// published, reporting cur — the serving generation the caller read
// once on entry (sbvet:snapshotonce — one decision, one snapshot
// read).
func (g *Guarded) publish(cur uint64, next []Classifier) (uint64, error) {
	for _, clf := range next {
		for _, hook := range g.cfg.PrePublish {
			if err := hook(clf); err != nil {
				return cur, fmt.Errorf("engine: pre-publish hook: %w", err)
			}
		}
	}
	gen := g.eng.publish(next)
	for _, hook := range g.cfg.PostPublish {
		hook()
	}
	return gen, nil
}

// Swap vets nothing — the caller built the replacements, one per
// shard — but still runs the publish hooks, so swap-time defenses fire
// on externally built snapshots too (the scenario simulator's
// background rebuilds publish through here). Unlike Engine.Swap it can
// fail: a PrePublish hook error aborts the publish. It returns the new
// epoch's generation.
func (g *Guarded) Swap(clfs ...Classifier) (uint64, error) {
	if len(clfs) != g.eng.NumShards() {
		panic(fmt.Sprintf("engine: Swap with %d classifiers for %d shards", len(clfs), g.eng.NumShards()))
	}
	for _, clf := range clfs {
		if clf == nil {
			panic("engine: Swap with nil classifier")
		}
	}
	return g.publish(g.eng.Generation(), clfs)
}

// Retrain vets train at the gateway, partitions the admitted subset by
// the routing key, rebuilds every shard from its own slice with a
// fresh classifier from factory, concurrently, and publishes the
// replacements through the hooks as one epoch. Scoring continues
// against the previous epoch for the whole build and never observes
// the half-trained replacements. It returns the new generation, or
// the current one and the error (ctx.Err() if cancelled mid-build);
// on error nothing is published.
func (g *Guarded) Retrain(ctx context.Context, factory Factory, train *corpus.Corpus) (uint64, error) {
	if factory == nil {
		panic("engine: Retrain with nil factory")
	}
	cur := g.eng.Generation()
	kept, err := g.VetCorpus(ctx, train)
	if err != nil {
		return cur, err
	}
	parts := g.eng.Partition(kept)
	next := make([]Classifier, len(parts))
	err = g.eng.forEachShard(func(sh int) error {
		next[sh] = factory()
		return trainAll(ctx, next[sh], parts[sh])
	})
	if err != nil {
		return cur, err
	}
	return g.publish(cur, next)
}

// RetrainIncremental vets delta at the gateway, partitions the
// admitted subset by the routing key, clones every shard's serving
// classifier, trains each shard's slice into its clone, and publishes
// the clones through the hooks as one epoch — the guarded live-learn
// path the serving daemon's learn queue drains through, and the cheap
// path when the new data is a small addition to what the epoch already
// knows. The classifiers cloned and the generation reported on error
// come from one Snapshots() read, so a concurrent publish cannot pair
// a clone with another generation's number (the torn-read class
// sbvet:snapshotonce rejects at lint time).
func (g *Guarded) RetrainIncremental(ctx context.Context, delta *corpus.Corpus) (uint64, error) {
	clfs, cur := g.eng.Snapshots()
	kept, err := g.VetCorpus(ctx, delta)
	if err != nil {
		return cur, err
	}
	parts := g.eng.Partition(kept)
	next := make([]Classifier, len(parts))
	err = g.eng.forEachShard(func(sh int) error {
		next[sh] = clfs[sh].CloneClassifier()
		return trainAll(ctx, next[sh], parts[sh])
	})
	if err != nil {
		return cur, err
	}
	return g.publish(cur, next)
}

// LearnStream starts a guarded bulk-training stream: every example is
// vetted (counted on its destination shard), admitted examples flow
// into the engine's own LearnStream, and the wait count is the number
// actually learned. Each example is tokenized exactly once (unless the
// producer already attached a stream): the same stream feeds the
// admission decision and, on acceptance, rides the Labeled into the
// inner stream so the learner never re-tokenizes. The contract matches
// Engine.LearnStream — cancellation discards the remainder but keeps
// draining until wait observes it, so a producer blocked on a full
// buffer is always released, and producers must stop sending before
// calling wait.
func (g *Guarded) LearnStream(ctx context.Context) (chan<- Labeled, func() (int, error)) {
	inner, innerWait := g.eng.LearnStream(ctx)
	tokFor := g.tokFor()
	in := make(chan Labeled, g.eng.learnBuf)
	stop := make(chan struct{})
	vetDone := make(chan struct{})
	var stopOnce sync.Once
	// cancelled records that vetting shut down because of the context,
	// not a producer close. It is written before vetDone closes and
	// read after wait receives it, so the handoff is ordered. Without
	// it the cancellation error can be swallowed: vetting's exit
	// closes the inner stream, and an inner consumer that observes its
	// closed channel before it happens to poll ctx.Done() finishes with
	// a nil error like any clean shutdown.
	var cancelled bool
	go func() {
		defer close(vetDone)
		// The inner stream closes (and its consumer finishes) exactly
		// when vetting is done forwarding.
		defer close(inner)
		for {
			select {
			case <-ctx.Done():
				cancelled = true
				go drainUntil(in, stop)
				return
			case ex, ok := <-in:
				if !ok {
					return
				}
				ts := ex.Stream
				if ts == nil {
					ts = tokFor(ex.Msg).Stream(ex.Msg)
				}
				if g.VetStream(ctx, ex.Msg, ts, ex.Spam).Verdict == AdmitAccept {
					// On cancellation the inner consumer drains its own
					// stream until its wait observes it, and wait below
					// does not call innerWait until vetting has exited,
					// so this forward is always released.
					ex.Stream = ts
					inner <- ex
				}
			}
		}
	}()
	wait := func() (int, error) {
		<-vetDone
		n, err := innerWait()
		if err == nil && cancelled {
			err = ctx.Err()
		}
		stopOnce.Do(func() { close(stop) })
		return n, err
	}
	return in, wait
}
