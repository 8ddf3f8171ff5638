// Package repro is the public API of this reproduction of Nelson et
// al., "Exploiting Machine Learning to Subvert Your Spam Filter"
// (LEET/NSDI-workshop 2008).
//
// The API is interface-first: every learner implements Classifier
// (Learn/Unlearn/Classify/Score), backends are constructed by name
// through the engine registry (NewClassifier, Backends), and the
// Engine service scores over any of them. The attacks, the defenses,
// the evaluation harness, and the deployment simulators all operate
// on the interface, mirroring the paper's claim that Causative
// Availability attacks exploit the statistical learning approach
// rather than one filter implementation.
//
// The Engine is a zero-downtime serving layer: the classifiers live
// behind an atomically swappable immutable epoch, batches and
// single-message verdicts always read one consistent generation, and
// a retrain builds the replacement off the serving path and publishes
// it with a single atomic store — scoring continues at full speed
// throughout, and no verdict is ever computed against a half-trained
// filter. Every backend also supports incremental retraining (clone
// the snapshot, train only the new examples). The deployment simulator
// exposes both views of that timeline: RunDeployment measures weekly
// test-set confusions after each retrain, and RunOnlineDeployment
// feeds every message through the engine one at a time, recording the
// verdict each user actually received while retrains swap in mid-week.
//
// NewSharded scales that serving layer out: one Engine whose logical
// filter is partitioned across N shards routed by a recipient-address
// hash, with the same surface (Classify, batch scoring with
// input-order restitching, Swap) and Stats that carry the combined
// counters beside the per-shard breakdown. Every
// shard's classifier and the one generation they serve at sit behind
// one epoch pointer, so a batch that spans shards still reads one
// generation and every publish replaces the whole epoch at once.
// Because every user's mail lands on — and trains — exactly one
// shard, batch throughput scales across shards, and a poisoning
// attack addressed to a single victim (the §4.3 targeted setting)
// degrades only that user's shard; DeploymentConfig.Shards runs the
// online simulation in this mode and reports per-shard at-delivery
// confusions separating target damage from collateral. A single
// engine is the one-shard case: with N == 1 the routing key is never
// called and the shard keeps the engine's name as its stats label,
// and every save is one record under the engine's name, so the
// guarded, serving, persistence and simulation layers each have one
// code path for every shard count.
//
// # Snapshot persistence
//
// The serving layer is durable: SaveEngine persists an engine's
// serving epoch — every shard's classifier and their one generation,
// read in one consistent atomic load — into a SnapshotStore as one
// record under the engine's name, whatever its shard count, and
// ResumeEngine restores the whole engine from the newest record whose
// every shard loads, so a restarted deployment resumes the generation
// line instead of restarting it. Every save is one self-describing
// envelope, written in one store write:
//
//	magic    "SNAP" 0x02 (format version)
//	uvarint  len(backend), backend registry name
//	uvarint  generation
//	uvarint  shard count, then per shard uvarint len(payload), payload
//	uvarint  section count, then per section a length-prefixed label
//	         ("admitter" | "quarantine") and payload
//	uint32   big-endian CRC-32 (IEEE) of every preceding byte
//
// The stamped backend name means resume needs no out-of-band
// configuration — the registry reconstructs the right classifier —
// and the trailing checksum rejects truncated or corrupted files
// before partial state can load. Resume scans generations newest to
// oldest and falls back past invalid ones, so one bad file costs one
// generation of history, never the deployment; a store with no valid
// generation fails with ErrNoSnapshot. Version-1 envelopes (one
// shard, no sections) still resume; a fleet stored in the retired
// one-line-per-shard layout is refused. The filesystem store writes
// via temp-file + rename (atomic against crashes mid-save) and keeps
// old generations until PruneSnapshots removes them. Golden-file
// tests pin the envelope and both backend database formats, and
// native fuzz targets hold the decoders to "error, never panic,
// never partial state"; a format change must consciously bump the
// version byte. DeploymentConfig.Checkpoints runs the online
// simulator in durable mode (checkpoint every N retrains, simulated
// crash and resume at a configured week).
//
// # Admission control
//
// The serving layer also guards its own training path. The paper's
// causative threat is that poison reaches the filter through training,
// and its defenses are evaluated as week-end batch steps; the
// admission pipeline runs them inline instead. An Admitter vets every
// candidate training example (Accept / Quarantine / Reject, with a
// reason) before it can influence a snapshot:
//
//   - TokenFloodGate rejects dictionary-style wide-vocabulary payloads
//     on structure alone — free, and label-blind, so ham-labeled
//     pseudospam does not slip it;
//   - IncrementalRONI runs the §5.1 clone-and-probe impact measurement
//     under an amortized per-message budget, memoizing verdicts by
//     payload identity (a replicated attack costs one probe) and
//     quarantining what the budget cannot cover;
//   - Quarantine holds deferred candidates until the next snapshot
//     swap, where they are re-vetted with freshly granted budget and
//     released into training or dropped;
//   - AdmissionChain composes admitters into a policy.
//
// A Guarded threads a policy through an engine's one training path,
// RetrainIncremental — NewGuarded over an Engine of any shard count.
// Candidates are vetted once, at the gateway, the stream each was
// vetted on is the stream that trains, and each decision is counted
// against the shard the example routes to (the admission tallies in
// EngineStats, summed and per shard). Every publish runs the hooks:
// PrePublish on every shard's replacement before anything publishes —
// where the §5.2 dynamic-threshold defense refits the replacement's
// cutoffs (DynamicThreshold.Refit, through the classifier's
// SetThresholds) before it goes live — and PostPublish once per
// publish. Scoring is never blocked: admission sits on the training
// path only.
// DeploymentConfig.Admission runs the online simulator in this mode,
// reporting per-week admitted/quarantined/rejected splits (organic
// vs. attack) and the probe bill against what one week-end batch pass
// would cost; DeploymentConfig.AttackAdaptive and AttackLabelHam
// supply the adversaries that stress it (a dose-adapting attacker and
// ham-labeled pseudospam).
//
// # Serving
//
// HTTPServer puts the guarded engine on the network: an http.Handler
// (stdlib only) exposing single-message and NDJSON-streaming
// classify/score endpoints, a learn endpoint that routes every
// submission through the admission guard — the admitflow analyzer
// proves the daemon has no other training path — and admin endpoints
// for deterministic flush, snapshot save, and in-place resume (which
// restores the admission state saved in the record, so a resume
// cannot amnesty held mail). The learn path is asynchronous and bounded: submissions
// enter a fixed-depth queue consumed by one publisher goroutine, and
// when the queue is full — backlog, or an admitter wedged mid-probe —
// the daemon sheds the submission with 503 + Retry-After and keeps
// classifying at full speed. Scoring never waits on training: the
// batch endpoints are gated only by their own inflight semaphore, the
// learn queue holds no scoring resources, and a wedged admitter can
// at worst degrade the daemon to score-only. Requests decode in one
// reflection-free pass straight into a Message, matching encoding/json
// on the wire types exactly (a differential fuzz target holds it to
// that): classify, score and learn bodies are strict — the first JSON
// value only, no unknown keys — while NDJSON batch lines are lenient
// and skip unknown keys; each body and each batch line is capped at
// 1 MiB, and batches of any length stream full duplex, verdicts going
// out while the request is still arriving. One constructor serves a
// guard of any fleet size; a save writes one record of every shard at
// the one generation plus the admission state, and a fleet resumes in
// place through the same resume start-up runs.
// cmd/sbserved wires this into a runnable daemon (flood gate +
// incremental RONI + quarantine, snapshot-dir persistence with
// save-on-shutdown and resume-at-startup, -shards 0 or 1 for one
// engine, N for a fleet); the repo benchmark (bash benchmark/run.sh)
// drives it with organic traffic and dictionary/focused attack
// submissions and checks every verdict it gets back.
//
// # Token pipeline
//
// Serving tokenizes each message exactly once. Tokenizer.Stream, the
// tokenizer's one entry point, builds a TokenStream — the message's
// distinct tokens in first-appearance order with occurrence counts, a
// total, and a length-prefixed digest — through a pooled per-message
// scratch arena, so steady-state tokenization costs a handful of
// allocations instead of a materialized []string per pipeline stage.
// The token stream is the Classifier contract: every backend exposes
// its tokenizer and scores, learns and unlearns streams over interned
// token IDs, each trained filter keeping a per-snapshot symbol table
// that clones cheaply for snapshot swaps and persists sorted. Every
// serving stage then consumes the same stream: Engine.Classify and the
// batch paths tokenize at the batch boundary and score the stream; a
// Guarded engine's vetting tokenizes each training candidate once and
// hands that one stream to the admitters (TokenFloodGate reads the
// distinct-token count in O(1), IncrementalRONI memoizes verdicts by
// stream digest and probes without re-tokenizing), to the Quarantine
// (whose swap-time reviews hand it back to the judge), and, once
// admitted, to the learner, which RetrainIncremental trains on that
// same stream. The tokenizeonce analyzer fences Tokenizer.Stream, so
// no stage can quietly reintroduce a second tokenization.
//
// # Observability
//
// The daemon is inspectable in production without touching its hot
// paths. MetricsRegistry is a stdlib-only metrics registry — lock-free
// atomic counters and fixed-bucket histograms, plus scrape-time
// sampled gauges and counters for values that live under other
// structs' locks (the RONI probe budget, quarantine depth) — rendered
// in Prometheus text exposition format (v0.0.4). One registry is
// shared across the layers: the engine registers classify and batch
// latency histograms, per-label verdict counters, and a generation
// gauge (per-shard labels on a fleet of several shards; one engine
// keeps the fleet's name); the admitters register their budget, memo,
// and quarantine accounting; the HTTP front-end registers per-route
// request counters, status classes, latency histograms, and
// learn-queue depth — and serves the whole registry at GET /metrics.
// ParseMetricsText parses the exposition back (the repo benchmark
// scrapes before and after a run and reads the daemon's side of each
// layer from it). HistogramSnapshot.Sub and Quantile, which delta and
// summarize one histogram, stay for the per-stage latency histograms
// the roadmap plans. DecisionTracer is the second surface: a
// bounded ring of sampled per-message lifecycle events — classify
// verdict, admission decision, quarantine hold and release, snapshot
// publish — each stamped with the serving generation and a monotonic
// timestamp, sampled deterministically by token-stream digest so one
// message's whole lifecycle samples coherently across layers; GET
// /trace replays the ring as NDJSON. The statscomplete
// analyzer extends to these instruments: a registered metric field a
// Stats/Snapshot method never reads is a lint error, so /stats and
// /metrics cannot silently disagree. Instrumentation adds zero
// allocations to the classify hot path (pinned by benchmark), and a
// nil registry or tracer is a working no-op, so every layer
// instruments unconditionally. GET /healthz reports readiness
// (generation, resume state, learn-queue saturation) and flips to 503
// while the daemon sheds learn traffic; cmd/sbserved wires it all up
// behind -metrics and -pprof flags.
//
// # Static analysis
//
// The serving and admission invariants described above are enforced
// at lint time by a project-specific analyzer suite,
// internal/analysis, with eight analyzers. Four are intraprocedural:
// snapshotonce (one snapshot load per decision), statscomplete (every
// atomic counter surfaces in Stats), ctxdrain (drain loops honor
// context cancellation) and tokenizeonce (tokenize-once message
// flow). Four are interprocedural, proved over a module-wide call
// graph with analyzer facts crossing package boundaries: admitflow
// (no call path reaches the engine's training surface or a backend's
// raw learners without passing through Guarded/Admitter), hookorder
// (a PrePublish/PostPublish hook never re-enters the publish path —
// Swap, publish, or Retrain* — which would deadlock inside the swap),
// facadeexport (every exported internal/engine, internal/admission,
// internal/serve and internal/obs capability is surfaced by this
// facade) and atomicfield (a field accessed with sync/atomic is never
// plainly read or written). The cmd/sbvet binary runs them over every
// package and its _test.go files (go run ./cmd/sbvet ./..., which is
// make lint), and CI fails on any finding. Intentional exceptions are
// annotated in the source with //sbvet:NAME directives (reload,
// nostat, drain, retokenize, unguarded, reentrant, nofacade,
// unatomic), each carrying a reason — for example the experiment
// layer's deliberate poison injection reads
//
//	f.LearnWeighted(attackMsg, true, n) //sbvet:unguarded the attack injection being measured
//
// Unknown directive names are themselves diagnostics, so a typo
// cannot silently waive a check.
//
// The layers, top to bottom:
//
//   - Classifier, Persistable, Cloner, Backend and Engine: the
//     backend-generic contract, the named-backend registry
//     ("sbayes", "graham"), and the snapshot-swapping concurrent
//     scoring service;
//   - Filter, the SpamBayes learner (Robinson token scores + Fisher
//     chi-square combining, ham/unsure/spam verdicts), and
//     GrahamFilter, the "A Plan for Spam" baseline — both satisfy
//     Classifier;
//   - the SpamBayes tokenizer, the email message model, and mbox
//     archive I/O;
//   - the synthetic corpus generator and attack lexicons that stand
//     in for the paper's TREC-2005 and Usenet data;
//   - the Causative Availability attacks (dictionary, focused,
//     optimal) and the two defenses (RONI — against any backend —
//     and dynamic thresholds);
//   - labeled corpora with sampling and cross-validation, serial and
//     parallel evaluation;
//   - the §2.1 deployment simulators (after-the-fact and online
//     at-delivery, periodic and incremental retraining, replicated
//     and chunked attack streams); and
//   - the experiment drivers that regenerate every table and figure,
//     including cross-backend attack transfer.
//
// See examples/ for runnable walkthroughs and cmd/subvert for the
// experiment harness.
package repro

import (
	"context"
	"io"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/graham"
	"repro/internal/lexicon"
	"repro/internal/mail"
	"repro/internal/obs"
	"repro/internal/sbayes"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/textgen"
	"repro/internal/tokenize"
)

// ---- The backend-generic classifier API ----

// Classifier is the learner contract every backend implements in
// whole: incremental Learn/Unlearn, Classify into ham/unsure/spam, and
// raw spam scores, over a message or over the TokenStream the
// backend's own tokenizer makes of it, plus saving, cloning, binding
// validation sets and setting thresholds.
type Classifier = engine.Classifier

// Persistable saves durable state and restores it in place: the part
// of the Classifier contract that saves a trained database, and the
// capability of carrying admission state across a restart (Quarantine,
// IncrementalRONI and AdmissionChain implement it), which SaveGuarded
// rides in the same record as the classifier snapshots.
type Persistable = engine.Persistable

// Cloner is the part of the Classifier contract that deep-copies the
// trained state into an independent classifier, as
// Guarded.RetrainIncremental does to branch the next snapshot.
type Cloner = engine.Cloner

// StreamClassifier is the stream-scoring half of the Classifier
// contract: scoring a once-tokenized message (a TokenStream), so one
// tokenization feeds score, vet, and learn.
type StreamClassifier = engine.StreamClassifier

// StreamLearner is the stream-training half of the Classifier
// contract: training on (and unlearning) a TokenStream with a
// multiplicity.
type StreamLearner = engine.StreamLearner

// Tokenizing is the part of the Classifier contract that exposes the
// tokenizer the classifier trains and scores with, so callers
// tokenize messages and corpora exactly as the backend does.
type Tokenizing = engine.Tokenizing

// ValidationBinder is the part of the Classifier contract that binds a
// fixed validation set to a classifier once, so it can be labeled many
// times cheaply; every RONI trial binds its validation set.
type ValidationBinder = engine.ValidationBinder

// ValidationSet is a validation set bound to one classifier: it labels
// every bound stream as the classifier would after learning one more
// message, without mutating the classifier.
type ValidationSet = engine.ValidationSet

// Backend is one registered learner implementation.
type Backend = engine.Backend

// ClassifierFactory constructs a fresh classifier; admitters use one
// to build probe filters.
type ClassifierFactory = engine.Factory

// Backends returns the registered backend names ("graham", "sbayes").
func Backends() []string { return engine.Backends() }

// LookupBackend returns the named backend.
func LookupBackend(name string) (Backend, error) { return engine.Lookup(name) }

// RegisterBackend adds a backend to the registry Backends and
// LookupBackend consult; the stock backends register themselves.
func RegisterBackend(b Backend) { engine.Register(b) }

// NewClassifier constructs a fresh classifier for a backend name.
func NewClassifier(backend string) (Classifier, error) {
	b, err := engine.Lookup(backend)
	if err != nil {
		return nil, err
	}
	return b.New(), nil
}

// Engine is the zero-downtime scoring service over one logical filter
// of N >= 1 recipient-hashed shards: worker-pool
// ClassifyBatch/ScoreBatch and single-message Classify against one
// atomically swappable epoch, Swap to publish a whole replacement
// epoch while scoring continues (Guarded adds the vetted retrain), and
// verdict/latency/generation counters, combined and per shard.
type Engine = engine.Engine

// EngineConfig tunes an Engine (name, per-shard workers, routing key,
// instruments).
type EngineConfig = engine.Config

// ClassifyResult is one message's verdict and the generation of the
// model that scored it.
type ClassifyResult = engine.Result

// EngineStats is a snapshot of an Engine's counters: the combined view
// beside the per-shard breakdown.
type EngineStats = engine.Stats

// NewEngine returns a one-shard scoring engine over any classifier.
func NewEngine(c Classifier, cfg EngineConfig) *Engine { return engine.New(c, cfg) }

// NewEngineAt returns a scoring engine serving at a prior generation,
// as a resume does after a restart, so the generation line continues.
func NewEngineAt(c Classifier, gen uint64, cfg EngineConfig) *Engine {
	return engine.NewAt(c, gen, cfg)
}

// ShardKey routes a message to a shard.
type ShardKey = engine.ShardKey

// NewSharded returns an Engine partitioned into one shard per
// classifier (a nil cfg.Key routes by recipient address hash):
// batches are grouped by shard, fanned out concurrently, and
// restitched in input order against one epoch, and each shard serves
// — and is retrained on — only its own users' mail, so poison trained
// into one user's shard degrades only the mailboxes routed there.
func NewSharded(clfs []Classifier, cfg EngineConfig) *Engine { return engine.NewSharded(clfs, cfg) }

// RecipientShardKey is the default ShardKey: an FNV-1a hash of the
// message's canonicalized To address.
func RecipientShardKey(m *Message) uint64 { return engine.RecipientKey(m) }

// AddressShardKey hashes one canonicalized address the way the
// default recipient routing does, so tooling can predict a message's
// shard from its To address alone.
func AddressShardKey(addr string) uint64 { return engine.AddressKey(addr) }

// PartitionByShardKey splits a corpus into n per-shard corpora with
// the same routing an engine of n shards uses, so per-shard retraining
// trains each shard on exactly the mail it serves.
func PartitionByShardKey(c *Corpus, n int, key ShardKey) []*Corpus {
	return engine.PartitionByKey(c, n, key)
}

// ParallelFor runs fn(i) for i in [0, n) on a bounded worker pool,
// returning early if ctx is cancelled — the fan-out primitive the
// sharded engine and the parallel evaluators share.
func ParallelFor(ctx context.Context, n, workers int, fn func(i int)) error {
	return engine.ParallelFor(ctx, n, workers, fn)
}

// ---- Admission control (the training-data vetting pipeline) ----

// Admitter vets candidate training examples before they can influence
// a serving snapshot.
type Admitter = engine.Admitter

// AdmitVerdict is an admission decision's three-way outcome.
type AdmitVerdict = engine.AdmitVerdict

// Admission verdicts.
const (
	AdmitAccept     = engine.AdmitAccept
	AdmitQuarantine = engine.AdmitQuarantine
	AdmitReject     = engine.AdmitReject
)

// AdmitDecision is one vetted candidate's outcome (verdict + reason).
type AdmitDecision = engine.AdmitDecision

// AdmissionStats counts an engine's vetted training candidates
// (surfaced inside EngineStats; Vetted == Admitted+Quarantined+
// Rejected by construction).
type AdmissionStats = engine.AdmissionStats

// ThresholdSetter is the part of the Classifier contract that replaces
// a classifier's decision thresholds after training — what
// DynamicThreshold.Refit installs refit cutoffs through at each
// snapshot swap.
type ThresholdSetter = engine.ThresholdSetter

// Guarded threads an admission policy through an engine's training
// path (RetrainIncremental, which trains the streams it vetted) and
// runs publish hooks at every epoch swap; scoring is never blocked.
type Guarded = engine.Guarded

// GuardedConfig wires the quarantine sink and the publish hooks.
type GuardedConfig = engine.GuardedConfig

// QuarantineSink receives examples an Admitter quarantined; a
// *Quarantine is the stock implementation.
type QuarantineSink = engine.QuarantineSink

// NewGuarded wraps an Engine of any shard count with admission
// control: one policy vets at the gateway, each decision counted
// against the destination shard.
func NewGuarded(e *Engine, admit Admitter, cfg GuardedConfig) *Guarded {
	return engine.NewGuarded(e, admit, cfg)
}

// IncrementalRONI is the §5.1 defense run incrementally as messages
// arrive: clone-and-probe impact measurement under an amortized
// per-message budget, memoized by payload identity, deferring to
// quarantine when the budget is exhausted.
type IncrementalRONI = admission.IncrementalRONI

// IncrementalRONIConfig tunes the budgeted admitter.
type IncrementalRONIConfig = admission.IncrementalRONIConfig

// IncrementalRONIStats is the admitter's monotone accounting.
type IncrementalRONIStats = admission.IncrementalRONIStats

// NewIncrementalRONI builds the admitter over a calibration pool; on
// the same pool, seed and configuration its probe verdicts match a
// batch RONI pass verdict for verdict.
func NewIncrementalRONI(cfg IncrementalRONIConfig, pool *Corpus, factory func() Classifier, r *RNG) (*IncrementalRONI, error) {
	return admission.NewIncrementalRONI(cfg, pool, factory, r)
}

// DefaultIncrementalRONIConfig returns the standard amortization.
func DefaultIncrementalRONIConfig() IncrementalRONIConfig {
	return admission.DefaultIncrementalRONIConfig()
}

// TokenFloodGate is the structural pre-filter that rejects
// dictionary-style wide-vocabulary payloads on token count alone.
type TokenFloodGate = admission.TokenFloodGate

// FloodGateConfig tunes the gate.
type FloodGateConfig = admission.FloodGateConfig

// NewTokenFloodGate builds the gate.
func NewTokenFloodGate(cfg FloodGateConfig) *TokenFloodGate {
	return admission.NewTokenFloodGate(cfg)
}

// Quarantine buffers candidates an admitter deferred until a snapshot
// swap reviews them (it is a valid GuardedConfig.Quarantine sink).
type Quarantine = admission.Quarantine

// QuarantineConfig tunes the buffer (capacity, review expiry).
type QuarantineConfig = admission.QuarantineConfig

// QuarantineStats is the buffer's accounting.
type QuarantineStats = admission.QuarantineStats

// HeldMessage is one quarantined training candidate awaiting review
// at the next snapshot swap.
type HeldMessage = admission.HeldMessage

// NewQuarantine builds an empty buffer.
func NewQuarantine(cfg QuarantineConfig) *Quarantine { return admission.NewQuarantine(cfg) }

// AdmissionChain composes admitters in order; the first non-Accept
// decision wins.
type AdmissionChain = admission.Chain

// NewAdmissionChain composes the links in vetting order.
func NewAdmissionChain(links ...Admitter) *AdmissionChain { return admission.NewChain(links...) }

// ---- Snapshot persistence (the durable serving layer) ----

// SnapshotStore holds persisted snapshot envelopes keyed by logical
// name and generation; writes are atomic against crashes mid-save.
type SnapshotStore = engine.SnapshotStore

// SnapshotEnvelope is one decoded persisted save: the backend
// registry name, the stamped generation, every shard's payload, and
// the guard's admission-state sections.
type SnapshotEnvelope = engine.Envelope

// SnapshotSection is one labeled admission-state payload of a save
// ("admitter" or "quarantine").
type SnapshotSection = engine.Section

// DirSnapshotStore is the filesystem SnapshotStore: one file per
// generation, written via temp-file + rename.
type DirSnapshotStore = engine.DirStore

// MemSnapshotStore is the in-memory SnapshotStore for tests and
// simulations.
type MemSnapshotStore = engine.MemStore

// ErrNoSnapshot reports a resume against a store with no generation
// that validates.
var ErrNoSnapshot = engine.ErrNoSnapshot

// NewDirSnapshotStore returns a filesystem store rooted at dir,
// creating the directory if needed.
func NewDirSnapshotStore(dir string) (*DirSnapshotStore, error) { return engine.NewDirStore(dir) }

// NewMemSnapshotStore returns an empty in-memory store.
func NewMemSnapshotStore() *MemSnapshotStore { return engine.NewMemStore() }

// SaveEngine persists e's serving epoch (every shard's classifier and
// their one generation, one consistent read) as one record under
// name, stamped with the backend registry name the classifiers report,
// which resume reconstructs them through. Concurrent scoring is never
// blocked.
func SaveEngine(st SnapshotStore, name string, e *Engine) (uint64, error) {
	return engine.SaveEngine(st, name, e)
}

// ResumeEngine restores an Engine of shards shards from name's newest
// record whose every shard loads, serving at that generation so the
// line continues across the restart. Invalid (corrupt, truncated,
// unknown-backend) generations are skipped; ErrNoSnapshot if none
// qualifies, an error if that record holds another shard count.
func ResumeEngine(st SnapshotStore, name string, shards int, cfg EngineConfig) (*Engine, SnapshotEnvelope, error) {
	return engine.ResumeEngine(st, name, shards, cfg)
}

// LatestSnapshotEnvelope decodes name's newest valid persisted
// snapshot without constructing an engine, skipping generations that
// fail validation; ErrNoSnapshot if none validates.
func LatestSnapshotEnvelope(st SnapshotStore, name string) (SnapshotEnvelope, error) {
	return engine.LatestEnvelope(st, name)
}

// NewClassifierFromEnvelope reconstructs the trained classifier a
// persisted one-shard record carries, via the backend registry.
func NewClassifierFromEnvelope(env SnapshotEnvelope) (Classifier, error) {
	return engine.NewFromEnvelope(env)
}

// PruneSnapshots removes all but the newest keep generations of name,
// never the generation a resume would restart from.
func PruneSnapshots(st SnapshotStore, name string, keep int) ([]uint64, error) {
	return engine.Prune(st, name, keep)
}

// DecodeSnapshotEnvelope parses and validates an encoded snapshot
// envelope (magic, version, checksum, exact framing).
func DecodeSnapshotEnvelope(data []byte) (SnapshotEnvelope, error) {
	return engine.DecodeEnvelope(data)
}

// SaveGuarded persists g's engine as SaveEngine does, with the
// admission state (quarantine contents, probe budget, memoized
// verdicts) in the same record and under the same checksum, closing
// the crash-amnesty hole: a restart can no longer free held mail or
// refill an exhausted probe bucket, and a save lands whole or not at
// all. It returns the saved generation. Guarded.Resume restores both
// into a running guard.
func SaveGuarded(st SnapshotStore, name string, g *Guarded) (uint64, error) {
	return engine.SaveGuarded(st, name, g)
}

// ResumeGuarded restores a guarded engine of shards shards from name's
// records as ResumeEngine does, loading the admission state saved in
// the same record into the freshly wired guard — held mail stays
// held, spent budget stays spent.
func ResumeGuarded(st SnapshotStore, name string, shards int, cfg EngineConfig, admit Admitter, gcfg GuardedConfig) (*Guarded, error) {
	return engine.ResumeGuarded(st, name, shards, cfg, admit, gcfg)
}

// ---- Serving (the guarded HTTP front-end) ----

// HTTPServer is the network front-end over a guarded fleet of any
// size: an http.Handler exposing classify/score (single and NDJSON batch),
// admission-guarded learn with bounded-queue load shedding (503 +
// Retry-After when the training path saturates; scoring never
// blocks), admin flush/save/resume, stats and health endpoints.
type HTTPServer = serve.Server

// HTTPServerConfig tunes the front-end (learn queue depth and batch,
// inflight batch limit, shed Retry-After, snapshot store wiring).
type HTTPServerConfig = serve.Config

// HTTPServerStats is a snapshot of the front-end's own counters
// (queued/shed/trained/publishes), alongside the engine's.
type HTTPServerStats = serve.Stats

// NewHTTPServer serves a guarded fleet — one engine or many shards.
// Close it when done.
func NewHTTPServer(g *Guarded, cfg HTTPServerConfig) *HTTPServer {
	return serve.New(g, cfg)
}

// WireMessage is a Message on the wire: ordered headers plus body.
type WireMessage = serve.WireMessage

// WireHeader is one ordered header field on the wire.
type WireHeader = serve.WireHeader

// WireFromMail converts a Message to its wire form.
func WireFromMail(m *Message) WireMessage { return serve.WireFromMail(m) }

// ClassifyRequest is the classify/score request body.
type ClassifyRequest = serve.ClassifyRequest

// ClassifyResponse is one classification verdict on the wire.
type ClassifyResponse = serve.ClassifyResponse

// ScoreResponse is one raw-score response on the wire.
type ScoreResponse = serve.ScoreResponse

// LearnRequest is a labeled training submission.
type LearnRequest = serve.LearnRequest

// LearnResponse acknowledges an accepted (queued) submission.
type LearnResponse = serve.LearnResponse

// FlushResponse reports a deterministic drain of the learn queue.
type FlushResponse = serve.FlushResponse

// SaveResponse lists the generations a snapshot save persisted.
type SaveResponse = serve.SaveResponse

// ResumeResponse reports an in-place resume from the snapshot store.
type ResumeResponse = serve.ResumeResponse

// HealthResponse is the GET /healthz readiness report: "ok" or
// "degraded" (503, learn queue saturated and shedding — score-only).
type HealthResponse = serve.HealthResponse

// ErrorResponse is the JSON error body every endpoint shares.
type ErrorResponse = serve.ErrorResponse

// ---- Observability (metrics registry + decision tracing) ----

// MetricsRegistry is the stdlib-only metrics registry the daemon's
// layers share: named counter/gauge/histogram families with bounded
// label sets, lock-free on the hot path, rendered in Prometheus text
// exposition format (v0.0.4) by WriteText — what GET /metrics serves.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty registry. A nil *MetricsRegistry
// is a working no-op (instruments it vends never record), so layers
// instrument unconditionally.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MetricLabel is one metric dimension (key="value"); series within a
// family are keyed by their canonical sorted label set.
type MetricLabel = obs.Label

// NewMetricLabel builds one label.
func NewMetricLabel(key, value string) MetricLabel { return obs.L(key, value) }

// MetricCounter is a lock-free monotone counter.
type MetricCounter = obs.Counter

// MetricHistogram is a fixed-bucket cumulative histogram: lock-free
// atomic buckets, with the count derived from the buckets so the
// exposition is monotone by construction.
type MetricHistogram = obs.Histogram

// HistogramSnapshot is one consistent-enough read of a histogram,
// supporting interpolated Quantile and before/after Sub deltas.
type HistogramSnapshot = obs.HistogramSnapshot

// DefaultLatencyBuckets are the request-latency bucket bounds the
// serving instruments use (100µs through 10s).
var DefaultLatencyBuckets = obs.DefLatencyBuckets

// ParsedMetrics is a parsed Prometheus text exposition — sample
// values, family types, and reassembled validated histograms.
type ParsedMetrics = obs.ParsedMetrics

// ParseMetricsText parses a text exposition (a /metrics scrape) back
// into queryable form, validating histogram bucket monotonicity.
func ParseMetricsText(r io.Reader) (*ParsedMetrics, error) { return obs.ParseText(r) }

// DecisionTracer is the bounded ring of sampled per-message decision
// lifecycle events (classify, admit, hold, release, learn, publish),
// each stamped with generation and monotonic timestamp. Sampling is
// deterministic by token-stream digest, so one message's lifecycle
// samples coherently across layers. A nil *DecisionTracer never
// samples and never records.
type DecisionTracer = obs.Tracer

// NewDecisionTracer returns a tracer recording every every-th sampled
// lifecycle into a ring of the given capacity.
func NewDecisionTracer(capacity, every int) *DecisionTracer { return obs.NewTracer(capacity, every) }

// TraceEvent is one recorded lifecycle event — what GET /trace
// replays as NDJSON.
type TraceEvent = obs.TraceEvent

// TraceEventKind names one stage of a traced decision lifecycle.
type TraceEventKind = obs.TraceKind

// Trace lifecycle stages.
const (
	TraceClassify = obs.TraceClassify
	TraceAdmit    = obs.TraceAdmit
	TraceHold     = obs.TraceHold
	TraceRelease  = obs.TraceRelease
	TraceLearn    = obs.TraceLearn
	TracePublish  = obs.TracePublish
)

// ---- Filter (the SpamBayes learner) ----

// Filter is the SpamBayes classifier: a token-count database plus the
// Robinson/Fisher scoring rule with ham/unsure/spam thresholds.
type Filter = sbayes.Filter

// FilterOptions are the learner's tunable parameters.
type FilterOptions = sbayes.Options

// Label is the three-way verdict shared by every backend.
type Label = engine.Label

// Verdicts.
const (
	Ham    = engine.Ham
	Unsure = engine.Unsure
	Spam   = engine.Spam
)

// Clue is one token's contribution to a classification.
type Clue = sbayes.Clue

// DefaultFilterOptions returns the SpamBayes defaults used in the
// paper (x=0.5, s=0.45, 150 discriminators, θ0=0.15, θ1=0.9).
func DefaultFilterOptions() FilterOptions { return sbayes.DefaultOptions() }

// NewFilter returns an empty filter with default options and
// tokenizer.
func NewFilter() *Filter { return sbayes.NewDefault() }

// NewFilterWithOptions returns an empty filter with explicit options
// and tokenizer (nil tokenizer selects the default).
func NewFilterWithOptions(opts FilterOptions, tok *Tokenizer) *Filter {
	return sbayes.New(opts, tok)
}

// LoadFilter reads a filter database written by Filter.Save.
func LoadFilter(r io.Reader, opts FilterOptions, tok *Tokenizer) (*Filter, error) {
	return sbayes.Load(r, opts, tok)
}

// ---- GrahamFilter (the "A Plan for Spam" baseline) ----

// GrahamFilter is Paul Graham's 2002 classifier: clamped naive Bayes
// over the fifteen most interesting tokens with a binary verdict. It
// is the second registered backend and demonstrates attack transfer
// across learners.
type GrahamFilter = graham.Filter

// GrahamOptions are the Graham learner's tunable parameters.
type GrahamOptions = graham.Options

// DefaultGrahamOptions returns the essay's parameters.
func DefaultGrahamOptions() GrahamOptions { return graham.DefaultOptions() }

// NewGrahamFilter returns an empty Graham filter with essay defaults.
func NewGrahamFilter() *GrahamFilter { return graham.NewDefault() }

// NewGrahamFilterWithOptions returns an empty Graham filter with
// explicit options and tokenizer (nil tokenizer selects the default).
func NewGrahamFilterWithOptions(opts GrahamOptions, tok *Tokenizer) *GrahamFilter {
	return graham.New(opts, tok)
}

// ---- Tokenizer ----

// Tokenizer converts messages into SpamBayes token streams.
type Tokenizer = tokenize.Tokenizer

// TokenizerOptions configures a Tokenizer.
type TokenizerOptions = tokenize.Options

// NewTokenizer returns a tokenizer with the given options.
func NewTokenizer(opts TokenizerOptions) *Tokenizer { return tokenize.New(opts) }

// DefaultTokenizer returns the SpamBayes-equivalent tokenizer.
func DefaultTokenizer() *Tokenizer { return tokenize.Default() }

// DefaultTokenizerOptions returns the SpamBayes-equivalent
// configuration.
func DefaultTokenizerOptions() TokenizerOptions { return tokenize.DefaultOptions() }

// Token is one tokenizer output token.
type Token = tokenize.Token

// TokenStream is a message tokenized once: its distinct tokens in
// first-appearance order with occurrence counts, the total token
// count, and a digest keying memoized admission verdicts. Streams are
// immutable and flow through score, vet, and learn without
// re-tokenizing (see the package's Token pipeline section).
type TokenStream = tokenize.TokenStream

// Sym is an interned token identifier within one Symbols table.
type Sym = tokenize.Sym

// NoSym is the sentinel Sym for a token absent from a table.
const NoSym = tokenize.NoSym

// Symbols is an intern table mapping tokens to dense Sym ids; each
// trained filter keeps one per snapshot.
type Symbols = tokenize.Symbols

// NewSymbols returns an empty intern table.
func NewSymbols() *Symbols { return tokenize.NewSymbols() }

// StreamFromTokens builds a TokenStream from a raw token sequence
// (duplicates allowed), so a word list — an attack dictionary — can be
// trained and scored like a tokenized message.
func StreamFromTokens(stream []string) *TokenStream { return tokenize.StreamFromTokens(stream) }

// ---- Mail ----

// Message is a single email: ordered header plus body.
type Message = mail.Message

// Header is an ordered sequence of header fields.
type Header = mail.Header

// MboxReader reads messages from an mbox archive.
type MboxReader = mail.MboxReader

// MboxWriter writes messages to an mbox archive.
type MboxWriter = mail.MboxWriter

// NewMboxReader returns a reader over r.
func NewMboxReader(r io.Reader) *MboxReader { return mail.NewMboxReader(r) }

// NewMboxWriter returns a writer that appends messages to w.
func NewMboxWriter(w io.Writer) *MboxWriter { return mail.NewMboxWriter(w) }

// ParseMessage parses one RFC-822-style message.
func ParseMessage(r io.Reader) (*Message, error) { return mail.Parse(r) }

// ---- Corpus ----

// Corpus is an ordered collection of labeled messages.
type Corpus = corpus.Corpus

// Example is one labeled message.
type Example = corpus.Example

// Fold is one train/test epoch of a cross-validation.
type Fold = corpus.Fold

// NewCorpus builds a corpus from separate ham and spam slices.
func NewCorpus(ham, spam []*Message) *Corpus { return corpus.FromMessages(ham, spam) }

// LoadMboxPair reads a corpus written by Corpus.SaveMboxPair.
func LoadMboxPair(dir string) (*Corpus, error) { return corpus.LoadMboxPair(dir) }

// ---- Synthetic data (the TREC-2005 / Usenet substitution) ----

// Universe is the segmented synthetic vocabulary.
type Universe = textgen.Universe

// Generator produces synthetic ham, spam and Usenet text.
type Generator = textgen.Generator

// GeneratorConfig controls message-level generation.
type GeneratorConfig = textgen.Config

// UniverseConfig sets vocabulary segment sizes.
type UniverseConfig = textgen.UniverseConfig

// NewGenerator builds a full-scale generator (the default universe:
// 98,568-word standard dictionary, 90,000-word Usenet vocabulary).
func NewGenerator() (*Generator, error) {
	u, err := textgen.NewUniverse(textgen.DefaultUniverseConfig())
	if err != nil {
		return nil, err
	}
	return textgen.New(u, textgen.DefaultConfig())
}

// NewGeneratorWith builds a generator from explicit configurations.
func NewGeneratorWith(ucfg UniverseConfig, gcfg GeneratorConfig) (*Generator, error) {
	u, err := textgen.NewUniverse(ucfg)
	if err != nil {
		return nil, err
	}
	return textgen.New(u, gcfg)
}

// Lexicon is an ordered word list (an attack word source).
type Lexicon = lexicon.Lexicon

// AspellLexicon builds the synthetic standard dictionary (the GNU
// aspell stand-in) over a universe.
func AspellLexicon(u *Universe) *Lexicon { return lexicon.Aspell(u) }

// OptimalLexicon builds the whole-universe word source.
func OptimalLexicon(u *Universe) *Lexicon { return lexicon.Optimal(u) }

// UsenetLexicon samples a Usenet corpus from the generator and keeps
// its top-k words.
func UsenetLexicon(g *Generator, r *RNG, streamTokens, k int) *Lexicon {
	return lexicon.UsenetFromGenerator(g, r, streamTokens, k)
}

// ---- Attacks ----

// Attacker is a Causative attack against the training set.
type Attacker = core.Attacker

// ChunkedAttacker is the capability of splitting the attack payload
// across distinct emails (the §4.2 stealth variant).
type ChunkedAttacker = core.ChunkedAttacker

// DictionaryAttack is the indiscriminate attack of §3.2.
type DictionaryAttack = core.DictionaryAttack

// FocusedAttack is the targeted attack of §3.3.
type FocusedAttack = core.FocusedAttack

// Taxonomy places an attack in the §3.1 three-axis space.
type Taxonomy = core.Taxonomy

// NewDictionaryAttack builds a dictionary attack over a word source.
func NewDictionaryAttack(lex *Lexicon) *DictionaryAttack { return core.NewDictionaryAttack(lex) }

// NewOptimalAttack builds the §3.4 optimal attack simulation.
func NewOptimalAttack(u *Universe) *DictionaryAttack { return core.NewOptimalAttack(u) }

// NewFocusedAttack builds a focused attack on a target email with
// per-word guess probability p; headerPool supplies spam headers.
func NewFocusedAttack(target *Message, p float64, headerPool []*Message) (*FocusedAttack, error) {
	return core.NewFocusedAttack(target, p, headerPool)
}

// AttackSize converts an attack fraction into a message count
// (1% of 10,000 → 101, as in the paper).
func AttackSize(fraction float64, trainSize int) int {
	return core.AttackSize(fraction, trainSize)
}

// FeedbackAttacker is the capability of adapting attack volume to
// observed accept/bounce feedback.
type FeedbackAttacker = core.FeedbackAttacker

// AdaptiveAttacker wraps any attack with a dose controller: the dose
// multiplies while the training pipeline accepts the poison and backs
// off while it bounces it.
type AdaptiveAttacker = core.AdaptiveAttacker

// AdaptiveConfig tunes the dose controller.
type AdaptiveConfig = core.AdaptiveConfig

// NewAdaptiveAttacker wraps inner with a dose controller.
func NewAdaptiveAttacker(inner Attacker, cfg AdaptiveConfig) (*AdaptiveAttacker, error) {
	return core.NewAdaptiveAttacker(inner, cfg)
}

// DefaultAdaptiveConfig returns the standard controller (double on
// acceptance, halve on rejection, clamped to [1/8, 4] of the base).
func DefaultAdaptiveConfig() AdaptiveConfig { return core.DefaultAdaptiveConfig() }

// ---- Defenses ----

// RONI is the Reject On Negative Impact defense of §5.1.
type RONI = core.RONI

// RONIConfig parameterizes RONI.
type RONIConfig = core.RONIConfig

// RONIImpact is a query email's measured impact.
type RONIImpact = core.Impact

// DynamicThreshold is the §5.2 threshold defense.
type DynamicThreshold = core.DynamicThreshold

// DefaultRONIConfig returns the paper's RONI parameters.
func DefaultRONIConfig() RONIConfig { return core.DefaultRONIConfig() }

// NewRONI samples trial sets from pool and builds the evaluator over
// SpamBayes trial filters.
func NewRONI(cfg RONIConfig, pool *Corpus, opts FilterOptions, tok *Tokenizer, r *RNG) (*RONI, error) {
	return core.NewRONI(cfg, pool, opts, tok, r)
}

// NewRONIBackend is NewRONI with trial filters built by any backend
// factory (clone-and-train against an arbitrary learner).
func NewRONIBackend(cfg RONIConfig, pool *Corpus, newClassifier func() Classifier, r *RNG) (*RONI, error) {
	return core.NewRONIBackend(cfg, pool, newClassifier, r)
}

// ---- Evaluation ----

// Confusion counts verdicts by true class.
type Confusion = eval.Confusion

// TrainFilter trains a fresh SpamBayes filter on a corpus.
func TrainFilter(train *Corpus, opts FilterOptions, tok *Tokenizer) *Filter {
	return eval.TrainFilter(train, opts, tok)
}

// TrainClassifier trains any classifier on a corpus in corpus order.
func TrainClassifier(c Classifier, train *Corpus) { eval.Train(c, train) }

// Evaluate scores a corpus under any classifier.
func Evaluate(c Classifier, test *Corpus) Confusion { return eval.Evaluate(c, test) }

// EvaluateBatch is Evaluate sharded across up to workers goroutines
// (GOMAXPROCS when workers <= 0).
func EvaluateBatch(c Classifier, test *Corpus, workers int) Confusion {
	return eval.EvaluateBatch(c, test, workers)
}

// ---- Experiments ----

// ExperimentConfig collects every experimental parameter.
type ExperimentConfig = experiments.Config

// ExperimentEnv is the shared experimental environment.
type ExperimentEnv = experiments.Env

// FullScaleConfig returns the paper's Table 1 parameters.
func FullScaleConfig() ExperimentConfig { return experiments.FullScale() }

// SmallScaleConfig returns a fast, structurally identical
// configuration.
func SmallScaleConfig() ExperimentConfig { return experiments.SmallScale() }

// NewExperimentEnv builds the environment for a configuration.
func NewExperimentEnv(cfg ExperimentConfig) (*ExperimentEnv, error) {
	return experiments.NewEnv(cfg)
}

// ---- Deployment simulation ----

// DeploymentConfig parameterizes the §2.1 weekly-retraining
// simulation (both the after-the-fact and the online variant).
type DeploymentConfig = scenario.Config

// DeploymentAdmissionConfig parameterizes the online deployment's
// inline vetting pipeline (DeploymentConfig.Admission); the zero
// value is a complete policy.
type DeploymentAdmissionConfig = scenario.AdmissionConfig

// AdmissionWeekReport is one week's inline-vetting outcome in an
// online deployment trace.
type AdmissionWeekReport = scenario.AdmissionWeek

// DeploymentResult is an after-the-fact simulation trace.
type DeploymentResult = scenario.Result

// OnlineDeploymentResult is an online simulation trace: per-week
// at-delivery confusions and serving-snapshot generations.
type OnlineDeploymentResult = scenario.OnlineResult

// RetrainMode selects how the online deployment rebuilds its serving
// snapshot each week.
type RetrainMode = scenario.RetrainMode

// Retraining strategies for the online deployment.
const (
	// RetrainPeriodic rebuilds from the full accumulated store.
	RetrainPeriodic = scenario.RetrainPeriodic
	// RetrainIncremental clones the serving snapshot and trains only
	// the week's new mail.
	RetrainIncremental = scenario.RetrainIncremental
)

// DefaultDeploymentConfig returns a small office-sized deployment.
func DefaultDeploymentConfig() DeploymentConfig { return scenario.DefaultConfig() }

// RunDeployment simulates an organization retraining its filter
// weekly, optionally under attack and with RONI scrubbing, measuring
// each week's filter on a fresh test corpus after the retrain.
func RunDeployment(g *Generator, cfg DeploymentConfig, r *RNG) (*DeploymentResult, error) {
	return scenario.Run(g, cfg, r)
}

// RunOnlineDeployment simulates the same organization one message at
// a time through a serving Engine: every verdict recorded is the one
// the user saw at delivery, and retrains are built in the background
// and published by atomic snapshot swap cfg.RetrainLag messages into
// the following week.
func RunOnlineDeployment(g *Generator, cfg DeploymentConfig, r *RNG) (*OnlineDeploymentResult, error) {
	return scenario.RunOnline(g, cfg, r)
}

// ---- Randomness ----

// RNG is the deterministic generator all randomness flows through.
type RNG = stats.RNG

// NewRNG returns a generator seeded from seed.
func NewRNG(seed uint64) *RNG { return stats.NewRNG(seed) }
