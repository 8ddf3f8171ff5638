package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mail"
	"repro/internal/obs"
	"repro/internal/tokenize"
)

// Config tunes an Engine.
type Config struct {
	// Name labels the engine in stats (defaults to "engine"). Shard i
	// of an engine of several shards is labeled "Name/i"; the shard of
	// a one-shard engine carries Name itself.
	Name string
	// Workers is the per-shard batch parallelism. <= 0 selects
	// GOMAXPROCS divided across the shards (at least 1 each), so an
	// engine of several shards does not oversubscribe the machine.
	Workers int
	// Key routes messages to shards (nil selects RecipientKey). A
	// one-shard engine never calls it.
	Key ShardKey
	// Obs, when non-nil, registers every shard's instruments — the
	// classify and batch latency histograms, verdict, publish and
	// admission counters, and generation gauge, each labeled with the
	// shard's stats label — for /metrics exposition, so an operator
	// can see one shard's latency or admission mix diverge. Nil still
	// instruments (the counters back Stats) but nothing is scraped.
	Obs *obs.Registry
	// Trace, when non-nil, receives sampled decision-trace events
	// (classify verdicts, admission decisions, publishes),
	// stamped with the shard index (-1 for a one-shard engine).
	Trace *obs.Tracer
}

// epoch is one published generation of the whole engine: every
// shard's classifier and the one generation they serve at. Epochs are
// immutable once published: a publish builds the whole next epoch off
// to the side and installs it with one atomic pointer store, so
// scoring never observes a half-trained filter, and a batch that reads
// the epoch once answers every message from one generation.
type epoch struct {
	clfs []Classifier
	gen  uint64
}

// Engine is a zero-downtime scoring service over one logical filter
// partitioned across N >= 1 shards. Every message is routed to the
// shard its Config.Key selects, so each shard serves — and is
// retrained on — a fixed slice of the user population; a single
// engine is the one-shard case, which never calls the key. Engine fans
// batches out across a worker pool per shard, holds every shard's
// classifier behind one atomically swappable epoch, and keeps
// per-shard verdict, latency and admission counters.
//
// Scoring (Classify, ClassifyBatch, ScoreBatch) loads the epoch once
// per call and uses it throughout, so a batch never mixes generations,
// not even across shards. Publishing (Swap, and the guarded retrain
// through Guarded) builds the whole next epoch and stores it once; the
// classifiers only need to tolerate concurrent read-only
// Classify/Score calls, which every backend guarantees. A published
// epoch is never mutated: classifiers are trained before they are
// published.
//
// Sharding buys two things one classifier cannot offer: batch scoring
// that fans out across shards, and per-user blast-radius isolation —
// poison trained into one shard degrades only the mailboxes routed
// there, which the per-shard Stats and instruments make observable.
type Engine struct {
	name    string
	key     ShardKey
	workers int
	trace   *obs.Tracer
	// shards holds each shard's stats label, trace index and
	// instruments; the classifiers they serve live in the epoch.
	shards []*shard

	// cur is the serving epoch. publishMu serializes publishers
	// (publishing is single-writer); readers only Load.
	cur       atomic.Pointer[epoch]
	publishMu sync.Mutex
}

// shard is one partition's label, trace index and instruments.
//
// Instruments are obs-backed: the same objects feed Stats() and, when
// a registry was configured, the /metrics exposition — one counter,
// two readers, so the JSON stats and the scrape can never disagree.
// Latencies are histograms, not summed durations: the sum is still
// there (Stats derives its cumulative latency from it), and the
// buckets show the tail a sum hides.
type shard struct {
	name string
	// index stamps trace events so a replayed decision names the shard
	// it landed on (-1 for the shard of a one-shard engine).
	index int32

	scored      *obs.Counter
	batches     *obs.Counter
	byLabel     [3]*obs.Counter
	batchLat    *obs.Histogram
	classifyLat *obs.Histogram
	publishes   *obs.Counter

	// Admission-control tallies, recorded by the Guarded wrapper for
	// the decisions that route to this shard; see guarded.go.
	admitted      *obs.Counter
	quarantined   *obs.Counter
	admitRejected *obs.Counter
}

// New returns a one-shard Engine serving clf as generation 1.
func New(clf Classifier, cfg Config) *Engine {
	return newEngine([]Classifier{clf}, 1, cfg)
}

// NewAt returns a one-shard Engine serving clf at generation gen — an
// engine that continues a persisted generation line (gen >= 1;
// Stats.Retrains reports Generation-1, the number of publishes since
// the line began).
func NewAt(clf Classifier, gen uint64, cfg Config) *Engine {
	return newEngine([]Classifier{clf}, gen, cfg)
}

// NewSharded returns an Engine of one shard per classifier in clfs,
// serving them as generation 1. Callers that want identically trained
// shards pass clones and diverge them later through publishes that
// replace one shard's classifier and pass the others through.
func NewSharded(clfs []Classifier, cfg Config) *Engine {
	return newEngine(clfs, 1, cfg)
}

// newEngine is the one constructor: every shard serves its classifier
// at generation gen — 1 for a fresh engine, the persisted stamp for a
// resumed one.
func newEngine(clfs []Classifier, gen uint64, cfg Config) *Engine {
	if len(clfs) == 0 {
		panic("engine: New with no classifiers")
	}
	for _, clf := range clfs {
		if clf == nil {
			panic("engine: New with nil classifier")
		}
	}
	if gen < 1 {
		panic("engine: NewAt with generation 0")
	}
	name := cfg.Name
	if name == "" {
		name = "engine"
	}
	key := cfg.Key
	if key == nil {
		key = RecipientKey
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = max(1, runtime.GOMAXPROCS(0)/len(clfs))
	}
	e := &Engine{name: name, key: key, workers: workers, trace: cfg.Trace,
		shards: make([]*shard, len(clfs))}
	for i := range clfs {
		label, index := name, int32(-1)
		if len(clfs) > 1 {
			label, index = fmt.Sprintf("%s/%d", name, i), int32(i)
		}
		e.shards[i] = e.newShard(cfg.Obs, label, index)
	}
	e.cur.Store(&epoch{clfs: append([]Classifier(nil), clfs...), gen: gen})
	return e
}

// newShard builds one shard's instruments. Registration happens once,
// here; the hot paths only touch the pre-built instruments. A nil
// registry hands back working unregistered instruments, so nothing
// below is conditional.
func (e *Engine) newShard(reg *obs.Registry, label string, index int32) *shard {
	el := obs.L("engine", label)
	sh := &shard{name: label, index: index}
	sh.scored = reg.Counter("engine_scored_total", "messages scored without a verdict (ScoreBatch)", el)
	sh.batches = reg.Counter("engine_batches_total", "completed batch calls (ClassifyBatch and ScoreBatch)", el)
	for i := Ham; i <= Spam; i++ {
		sh.byLabel[i] = reg.Counter("engine_classified_total", "classification verdicts by label", el, obs.L("label", i.String()))
	}
	sh.batchLat = reg.Histogram("engine_batch_seconds", "batch call wall-clock latency", nil, el)
	sh.classifyLat = reg.Histogram("engine_classify_seconds", "single-message classify latency (the at-delivery hot path)", nil, el)
	sh.publishes = reg.Counter("engine_publishes_total", "snapshot publishes (RetrainIncremental, Swap, Resume) by this process", el)
	sh.admitted = reg.Counter("engine_admission_total", "admission decisions on training candidates, by verdict", el, obs.L("verdict", AdmitAccept.String()))
	sh.quarantined = reg.Counter("engine_admission_total", "admission decisions on training candidates, by verdict", el, obs.L("verdict", AdmitQuarantine.String()))
	sh.admitRejected = reg.Counter("engine_admission_total", "admission decisions on training candidates, by verdict", el, obs.L("verdict", AdmitReject.String()))
	reg.GaugeFunc("engine_generation", "serving snapshot generation", func() float64 { return float64(e.Generation()) }, el)
	return sh
}

// Snapshots returns every shard's serving classifier, indexed by
// shard, and the generation they serve at, in one consistent read.
// The slice is the published epoch's own: callers must not modify it.
func (e *Engine) Snapshots() ([]Classifier, uint64) {
	ep := e.cur.Load()
	return ep.clfs, ep.gen
}

// Snapshot returns the serving classifier of a one-shard engine and
// its generation in one consistent read. It panics on an engine of
// several shards, whose classifiers Snapshots returns.
func (e *Engine) Snapshot() (Classifier, uint64) {
	clfs, gen := e.Snapshots()
	if len(clfs) != 1 {
		panic(fmt.Sprintf("engine: Snapshot on an engine of %d shards", len(clfs)))
	}
	return clfs[0], gen
}

// Generation returns the serving epoch's generation number — every
// shard's. It starts at 1 and increases by one per publish.
func (e *Engine) Generation() uint64 { return e.cur.Load().gen }

// Name returns the engine's stats label.
func (e *Engine) Name() string { return e.name }

// Workers returns the effective per-shard batch parallelism.
func (e *Engine) Workers() int { return e.workers }

// NumShards returns the shard count.
func (e *Engine) NumShards() int { return len(e.shards) }

// Result is one message's verdict and the generation of the epoch
// that scored it.
type Result struct {
	Label      Label
	Score      float64
	Generation uint64
}

// Classify routes one message to its shard and scores it against the
// current epoch — the at-delivery verdict an online deployment hands
// the user while retraining may be running in the background. Its
// wall-clock cost is tracked in Stats.ClassifyLatency, so the online
// hot path is as visible as batch scoring.
func (e *Engine) Classify(m *mail.Message) Result {
	start := time.Now()
	ep := e.cur.Load()
	i := e.ShardFor(m)
	sh, clf := e.shards[i], ep.clfs[i]
	ts := clf.Tokenizer().Stream(m)
	label, score := clf.ClassifyTokenStream(ts)
	sh.classifyLat.ObserveSince(start)
	sh.byLabel[labelIndex(label)].Inc()
	e.traceClassify(sh, ep.gen, ts, label, score)
	return Result{Label: label, Score: score, Generation: ep.gen}
}

// traceClassify records a sampled classify verdict.
func (e *Engine) traceClassify(sh *shard, gen uint64, ts *tokenize.TokenStream, label Label, score float64) {
	if d := ts.Digest(); e.trace.Sampled(d) {
		e.trace.Record(obs.TraceEvent{
			Kind: obs.TraceClassify, Digest: d, Generation: gen,
			Shard: sh.index, Verdict: label.String(), Score: score,
		})
	}
}

// ClassifyBatch scores msgs and returns the results in input order:
// out[i] is the verdict of msgs[i]. The batch is grouped by shard and
// each shard's slice is scored on its own worker pool, concurrently
// with the others, against one epoch: every answer comes from one
// generation, which each Result carries, even if a publish lands
// mid-batch. It stops early and returns ctx.Err() if the context is
// cancelled.
func (e *Engine) ClassifyBatch(ctx context.Context, msgs []*mail.Message) ([]Result, error) {
	ep := e.cur.Load()
	out := make([]Result, len(msgs))
	err := e.fanOut(ctx, ep, msgs, func(sh *shard, clf Classifier, tok *tokenize.Tokenizer, i int) {
		ts := tok.Stream(msgs[i])
		label, score := clf.ClassifyTokenStream(ts)
		e.traceClassify(sh, ep.gen, ts, label, score)
		out[i] = Result{Label: label, Score: score, Generation: ep.gen}
	}, func(sh *shard, i int) { sh.byLabel[labelIndex(out[i].Label)].Inc() })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScoreBatch is ClassifyBatch without thresholding: out[i] is the
// spam score of msgs[i], and gen the generation of the one epoch that
// scored them all. Score-only traffic produces no verdicts, so it
// counts toward Stats.Scored, not Classified — keeping the invariant
// sum(ByLabel) == Classified intact.
func (e *Engine) ScoreBatch(ctx context.Context, msgs []*mail.Message) ([]float64, uint64, error) {
	ep := e.cur.Load()
	out := make([]float64, len(msgs))
	err := e.fanOut(ctx, ep, msgs, func(_ *shard, clf Classifier, tok *tokenize.Tokenizer, i int) {
		out[i] = clf.ScoreTokenStream(tok.Stream(msgs[i]))
	}, func(sh *shard, _ int) { sh.scored.Inc() })
	if err != nil {
		return nil, 0, err
	}
	return out, ep.gen, nil
}

// fanOut runs score(i) for every message against its shard's
// classifier in ep: each shard's slice of the batch on a pool of
// e.workers, the shards concurrently. A shard whose slice completes
// counts one batch and its latency, then tally(i) for each of its
// messages — counters publish only when a slice completes, so Stats
// is consistent to within the in-flight batch. It returns the first
// error (ctx.Err() on cancellation).
func (e *Engine) fanOut(ctx context.Context, ep *epoch, msgs []*mail.Message,
	score func(sh *shard, clf Classifier, tok *tokenize.Tokenizer, i int), tally func(sh *shard, i int)) error {
	if len(msgs) == 0 {
		return ctx.Err()
	}
	run := func(s int, n int, at func(j int) int) error {
		start := time.Now()
		sh, clf := e.shards[s], ep.clfs[s]
		tok := clf.Tokenizer()
		if err := ParallelFor(ctx, n, min(e.workers, n), func(j int) { score(sh, clf, tok, at(j)) }); err != nil {
			return err
		}
		sh.batches.Inc()
		sh.batchLat.ObserveSince(start)
		for j := 0; j < n; j++ {
			tally(sh, at(j))
		}
		return nil
	}
	if len(e.shards) == 1 {
		return run(0, len(msgs), func(j int) int { return j })
	}
	idx := make([][]int, len(e.shards))
	for i, m := range msgs {
		s := e.ShardFor(m)
		idx[s] = append(idx[s], i)
	}
	return e.forEachShard(func(s int) error {
		if len(idx[s]) == 0 {
			return nil
		}
		return run(s, len(idx[s]), func(j int) int { return idx[s][j] })
	})
}

// Swap publishes externally built classifiers, clfs[i] for shard i, as
// the next epoch and returns its generation. len(clfs) must equal
// NumShards; a shard that should keep serving passes its current
// classifier through (Snapshots). Callers that build replacements
// themselves (a deployment simulator overlapping the build with next
// week's deliveries, a process loading a database from disk) use it as
// the raw publish primitive; the classifiers must not be mutated after
// the call. Guarded.Swap is the same publish with the hooks.
func (e *Engine) Swap(clfs ...Classifier) uint64 {
	if len(clfs) != len(e.shards) {
		panic(fmt.Sprintf("engine: Swap with %d classifiers for %d shards", len(clfs), len(e.shards)))
	}
	for _, clf := range clfs {
		if clf == nil {
			panic("engine: Swap with nil classifier")
		}
	}
	return e.publish(clfs, nil)
}

// publish installs clfs as the next epoch in one atomic store and
// returns its generation. Publishers are serialized (publishing is
// single-writer); concurrent scoring is never blocked. Publish events
// always trace, one per shard (they are generation-scoped, not
// message-scoped, so sampling does not apply). learned, when not nil,
// holds the examples trained into each shard's classifier: each
// sampled one records a learn event at the new generation just before
// its shard's publish event, so a trace reads admit → learn → publish
// and only a publish that landed records what it trained.
func (e *Engine) publish(clfs []Classifier, learned [][]labeled) uint64 {
	e.publishMu.Lock()
	defer e.publishMu.Unlock()
	gen := e.cur.Load().gen + 1
	e.cur.Store(&epoch{clfs: append([]Classifier(nil), clfs...), gen: gen})
	for i, sh := range e.shards {
		if learned != nil {
			for _, ex := range learned[i] {
				if digest := ex.Stream.Digest(); e.trace.Sampled(digest) {
					label := Ham
					if ex.Spam {
						label = Spam
					}
					e.trace.Record(obs.TraceEvent{Kind: obs.TraceLearn, Digest: digest, Generation: gen, Shard: sh.index, Verdict: label.String()})
				}
			}
		}
		sh.publishes.Inc()
		e.trace.Record(obs.TraceEvent{Kind: obs.TracePublish, Generation: gen, Shard: sh.index})
	}
	return gen
}

// Stats is a point-in-time snapshot of an engine's counters: the
// combined view under the engine's name, beside the per-shard
// breakdown.
type Stats struct {
	Name string
	// Generation is the serving epoch's generation (1 is the
	// classifiers the engine was constructed over) — every shard's.
	Generation uint64
	// Retrains is the number of publishes since the generation line
	// began — always Generation - 1, reported for readability, for any
	// shard count. An engine resumed from a persisted snapshot inherits
	// the line, so pre-restart publishes count.
	Retrains uint64
	// Classified is the total number of messages given verdicts
	// (Classify and ClassifyBatch). It is derived from ByLabel inside
	// Stats — every classified message lands in exactly one bucket —
	// so sum(ByLabel) == Classified holds by construction, even for a
	// reader racing an in-flight batch's counter publication.
	Classified uint64
	// Scored is the total number of messages scored without a verdict
	// (ScoreBatch) — counted apart from Classified so score-only
	// traffic cannot break the ByLabel invariant.
	Scored uint64
	// Batches is the number of completed batch calls (ClassifyBatch
	// and ScoreBatch), counted once per shard a batch reached.
	Batches uint64
	// ByLabel counts classification verdicts, indexed by Label.
	ByLabel [3]uint64
	// Publishes is the number of publishes performed by this process.
	// Every publish replaces every shard's classifier, so each shard's
	// own count is the same number. Unlike Retrains it does not count
	// pre-restart publishes an inherited generation line carries, so on
	// a resumed engine Publishes < Retrains.
	Publishes uint64
	// BatchLatency is the cumulative wall-clock time spent in
	// completed batch calls, derived from the batch latency histogram's
	// sum (the buckets behind it are exposed via /metrics).
	BatchLatency time.Duration
	// ClassifyLatency is the cumulative wall-clock time spent in
	// single-message Classify calls — the online at-delivery hot path.
	ClassifyLatency time.Duration
	// Admission counts training candidates vetted through a Guarded
	// wrapper (zero on an unguarded engine). Its Vetted total is
	// derived from the per-verdict loads, so Vetted ==
	// Admitted+Quarantined+Rejected holds by construction.
	Admission AdmissionStats
	// Shards is each shard's own counters under its stats label,
	// indexed by shard. Every entry reports the engine's Generation
	// and Retrains, and the combined counters above are their sums, so
	// sum(Shards[i].Admission) == Admission holds even against
	// concurrent vetting. An entry's own Shards is nil, and left out
	// of its JSON.
	Shards []Stats `json:",omitempty"`
}

// Stats returns the current counters. Counters from a batch are
// published only when each shard's slice completes, so a snapshot is
// always internally consistent to within the in-flight batch.
func (e *Engine) Stats() Stats {
	gen := e.cur.Load().gen
	st := Stats{Name: e.name, Generation: gen, Retrains: gen - 1, Shards: make([]Stats, len(e.shards))}
	for i, sh := range e.shards {
		s := sh.stats(gen)
		st.Shards[i] = s
		st.Classified += s.Classified
		st.Scored += s.Scored
		st.Batches += s.Batches
		for l := range s.ByLabel {
			st.ByLabel[l] += s.ByLabel[l]
		}
		st.BatchLatency += s.BatchLatency
		st.ClassifyLatency += s.ClassifyLatency
		st.Admission.add(s.Admission)
	}
	st.Publishes = st.Shards[0].Publishes
	return st
}

// stats snapshots one shard's counters at generation gen.
func (sh *shard) stats(gen uint64) Stats {
	byLabel := [3]uint64{
		sh.byLabel[0].Value(),
		sh.byLabel[1].Value(),
		sh.byLabel[2].Value(),
	}
	return Stats{
		Name:            sh.name,
		Generation:      gen,
		Retrains:        gen - 1,
		Classified:      byLabel[0] + byLabel[1] + byLabel[2],
		Scored:          sh.scored.Value(),
		Batches:         sh.batches.Value(),
		ByLabel:         byLabel,
		Publishes:       sh.publishes.Value(),
		BatchLatency:    sh.batchLat.SumDuration(),
		ClassifyLatency: sh.classifyLat.SumDuration(),
		Admission:       sh.admissionStats(),
	}
}

// labelIndex clamps a label into the counter array.
func labelIndex(l Label) int {
	if l < Ham || l > Spam {
		return int(Unsure)
	}
	return int(l)
}
