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
// calls — the daemon vets on one learn loop, but batch vetting and
// tests exercise admitters from multiple goroutines.
type Admitter interface {
	// Name identifies the admitter in traces.
	Name() string
	// Admit decides one candidate's fate. spam is the label the example
	// would be trained under (the contamination assumption labels
	// attack mail spam; the pseudospam variant labels it ham). ts is m
	// tokenized once by the caller with the tokenizer the filter would
	// learn it under, and is never nil: admitters read it and never
	// tokenize m themselves (the tokenize-once contract). The stream
	// they judge is the stream that trains.
	Admit(ctx context.Context, m *mail.Message, ts *tokenize.TokenStream, spam bool) AdmitDecision
}

// QuarantineSink receives examples an Admitter quarantined. The
// concrete buffer (admission.Quarantine) holds them for re-scoring at
// the next snapshot swap; ts, never nil, is the candidate's token
// stream, kept alongside so the swap-time review judges the stream
// the candidate was vetted on and never re-tokenizes.
type QuarantineSink interface {
	Hold(m *mail.Message, ts *tokenize.TokenStream, spam bool, reason string)
	// Restream replaces every held candidate's stream with stream(m).
	// A resume calls it once, right after loading the sink's section
	// of a record — which keeps held messages, not their streams — with
	// the serving tokenizer of the shard each candidate routes to, so
	// a resumed hold carries a stream exactly as a live one does.
	Restream(stream func(*mail.Message) *tokenize.TokenStream)
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
// path: RetrainIncremental vets every example through the Admitter
// before it is learned and trains the stream it vetted, quarantined
// examples are routed to the configured sink, and every publish runs
// the PrePublish/PostPublish hooks. Scoring (Classify, ClassifyBatch,
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
// path shares: it runs one candidate, tokenized once upstream (ts is
// never nil), through the admitter, records the decision against the
// shard the candidate routes to, and routes a quarantine verdict —
// stream and all — to the configured sink. It is exported so a
// deployment that trains through its own machinery (the scenario
// simulator's background rebuilds) can still vet inline without
// re-tokenizing.
func (g *Guarded) VetStream(ctx context.Context, m *mail.Message, ts *tokenize.TokenStream, spam bool) AdmitDecision {
	sh := g.eng.shards[g.eng.ShardFor(m)]
	d := g.admit.Admit(ctx, m, ts, spam)
	sh.recordAdmission(d.Verdict)
	if digest := ts.Digest(); g.eng.trace.Sampled(digest) {
		g.eng.trace.Record(obs.TraceEvent{
			Kind: obs.TraceAdmit, Digest: digest, Generation: g.eng.Generation(),
			Shard: sh.index, Verdict: d.Verdict.String(), Reason: d.Reason,
		})
	}
	if d.Verdict == AdmitQuarantine && g.cfg.Quarantine != nil {
		g.cfg.Quarantine.Hold(m, ts, spam, d.Reason)
	}
	return d
}

// labeled is one admitted training example and the token stream it
// was vetted on — the one shape the training path trains. Stream is
// never nil: vetCorpus tokenizes each candidate once, with the serving
// tokenizer of the shard it routes to, and the same stream feeds the
// admitter, the quarantine sink and, once admitted, the learner's
// LearnTokenStream (RetrainIncremental).
type labeled struct {
	Msg    *mail.Message
	Stream *tokenize.TokenStream
	Spam   bool
}

// vetCorpus vets every example of c in corpus order and returns each
// shard's admitted examples, indexed by shard, with the streams they
// were vetted on. Each candidate is tokenized once, with the tokenizer
// of the shard it routes to in clfs, the epoch the caller read once,
// and that one stream feeds the admitter, the quarantine sink (for a
// quarantined example) and the returned labeled (for an admitted one);
// rejected examples are dropped. It checks ctx between examples.
func (g *Guarded) vetCorpus(ctx context.Context, clfs []Classifier, c *corpus.Corpus) ([][]labeled, error) {
	kept := make([][]labeled, len(clfs))
	for _, ex := range c.Examples {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		i := g.eng.ShardFor(ex.Msg)
		ts := clfs[i].Tokenizer().Stream(ex.Msg)
		if g.VetStream(ctx, ex.Msg, ts, ex.Spam).Verdict == AdmitAccept {
			kept[i] = append(kept[i], labeled{Msg: ex.Msg, Stream: ts, Spam: ex.Spam})
		}
	}
	return kept, nil
}

// publish runs the PrePublish hooks on every shard's replacement,
// publishes the replacements as the next epoch, then runs the
// PostPublish hooks once. A PrePublish error aborts before anything is
// published, reporting cur — the serving generation the caller read
// once on entry (sbvet:snapshotonce — one decision, one snapshot
// read). learned, nil unless the guard trained the replacements
// itself, is what each shard's replacement learned, for the learn
// trace events the publish records.
func (g *Guarded) publish(cur uint64, next []Classifier, learned [][]labeled) (uint64, error) {
	for _, clf := range next {
		for _, hook := range g.cfg.PrePublish {
			if err := hook(clf); err != nil {
				return cur, fmt.Errorf("engine: pre-publish hook: %w", err)
			}
		}
	}
	gen := g.eng.publish(next, learned)
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
	return g.publish(g.eng.Generation(), clfs, nil)
}

// RetrainIncremental vets delta at the gateway, clones every shard's
// serving classifier, trains each shard's admitted examples into its
// clone, and publishes the clones through the hooks as one epoch — the
// guarded live-learn path the serving daemon's learn queue drains
// through. What trains is exactly what was vetted: each clone learns
// the stream vetCorpus handed the admitter (LearnTokenStream), so no
// admitted message is tokenized a second time. Scoring continues
// against the previous epoch for the whole build and never observes a
// half-trained clone. The classifiers cloned, the tokenizers vetting
// uses and the generation reported on error come from one Snapshots()
// read, so a concurrent publish cannot pair a clone with another
// generation's number (the torn-read class sbvet:snapshotonce rejects
// at lint time). When the publish lands, each sampled stream it trained
// records a learn trace event on its shard, stamped with the generation
// the publish created. It returns the new generation, or the current
// one and the error (ctx.Err() if cancelled); on error nothing is
// published and no learn event is recorded.
func (g *Guarded) RetrainIncremental(ctx context.Context, delta *corpus.Corpus) (uint64, error) {
	clfs, cur := g.eng.Snapshots()
	kept, err := g.vetCorpus(ctx, clfs, delta)
	if err != nil {
		return cur, err
	}
	next := make([]Classifier, len(kept))
	err = g.eng.forEachShard(func(sh int) error {
		next[sh] = clfs[sh].CloneClassifier()
		for _, ex := range kept[sh] {
			if err := ctx.Err(); err != nil {
				return err
			}
			next[sh].LearnTokenStream(ex.Stream, ex.Spam, 1)
		}
		return nil
	})
	if err != nil {
		return cur, err
	}
	return g.publish(cur, next, kept)
}
