package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/mail"
	"repro/internal/obs"
	"repro/internal/tokenize"
)

// Config tunes an Engine.
type Config struct {
	// Name labels the engine in stats (defaults to "engine").
	Name string
	// Workers is the batch-scoring parallelism (<= 0 selects
	// GOMAXPROCS).
	Workers int
	// LearnBuffer is the LearnStream channel capacity (<= 0 selects
	// 256).
	LearnBuffer int
	// Obs, when non-nil, registers the engine's instruments — the
	// classify/batch/learn latency histograms, verdict and publish
	// counters, and generation gauge, all labeled engine=Name — for
	// /metrics exposition. Nil still instruments (the counters back
	// Stats) but nothing is scraped.
	Obs *obs.Registry
	// Trace, when non-nil, receives sampled decision-trace events
	// (classify verdicts, admission decisions, learns, publishes).
	Trace *obs.Tracer
}

// snapshot is one published generation of the serving classifier.
// Snapshots are immutable once published: retraining builds a fresh
// classifier off to the side and installs it with one atomic pointer
// store, so scoring never observes a half-trained filter.
type snapshot struct {
	clf Classifier
	gen uint64
}

// Engine is a zero-downtime scoring service over a classifier: it
// fans batches out across a worker pool, holds the classifier behind
// an atomically swappable snapshot so Retrain can rebuild it while
// batches keep flowing, funnels bulk training through a buffered
// stream, and keeps verdict and latency counters.
//
// Scoring (Classify, ClassifyBatch, ScoreBatch) reads the current
// snapshot once per call and uses it throughout, so a batch never
// mixes generations. Publishing (Retrain, RetrainIncremental, Swap)
// replaces the snapshot atomically; the classifier only needs to
// tolerate concurrent read-only Classify/Score calls, which every
// backend guarantees. The one in-place mutation path, LearnStream,
// trains the snapshot current at stream start and is meant for bulk
// loading before serving begins.
type Engine struct {
	name     string
	workers  int
	learnBuf int
	// shard is this engine's index inside a Sharded fleet (-1 when
	// standalone or the fleet's only shard); it stamps trace events so
	// a replayed decision names the shard it landed on.
	shard int32
	trace *obs.Tracer

	// cur is the serving snapshot. publishMu serializes publishers
	// (retraining is single-writer); readers only Load.
	cur       atomic.Pointer[snapshot]
	publishMu sync.Mutex

	// Instruments are obs-backed: the same objects feed Stats() and,
	// when a registry was configured, the /metrics exposition — one
	// counter, two readers, so the JSON stats and the scrape can never
	// disagree. Latencies are histograms, not summed durations: the
	// sum is still there (Stats derives its cumulative latency from
	// it), and the buckets show the tail a sum hides.
	scored      *obs.Counter
	learned     *obs.Counter
	batches     *obs.Counter
	byLabel     [3]*obs.Counter
	batchLat    *obs.Histogram
	classifyLat *obs.Histogram
	learnLat    *obs.Histogram
	publishes   *obs.Counter

	// Admission-control tallies, recorded by the Guarded wrapper for
	// the decisions that route to this engine; see guarded.go.
	admitted      *obs.Counter
	quarantined   *obs.Counter
	admitRejected *obs.Counter
}

// New returns an Engine serving clf as generation 1.
func New(clf Classifier, cfg Config) *Engine {
	return NewAt(clf, 1, cfg)
}

// NewAt returns an Engine serving clf at generation gen — the resume
// path: an engine restored from a persisted snapshot keeps the
// snapshot's stamped generation, so the generation line is continuous
// across restarts instead of restarting from 1. gen must be at least
// 1 (Stats.Retrains reports Generation-1, the number of publishes
// since the line began).
func NewAt(clf Classifier, gen uint64, cfg Config) *Engine {
	if clf == nil {
		panic("engine: New with nil classifier")
	}
	if gen < 1 {
		panic("engine: NewAt with generation 0")
	}
	name := cfg.Name
	if name == "" {
		name = "engine"
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	learnBuf := cfg.LearnBuffer
	if learnBuf <= 0 {
		learnBuf = 256
	}
	e := &Engine{name: name, workers: workers, learnBuf: learnBuf, shard: -1, trace: cfg.Trace}
	e.cur.Store(&snapshot{clf: clf, gen: gen})

	// Instrument registration happens once, here; the hot paths only
	// touch the pre-built instruments. A nil registry hands back
	// working unregistered instruments, so nothing below is
	// conditional.
	reg := cfg.Obs
	el := obs.L("engine", name)
	e.scored = reg.Counter("engine_scored_total", "messages scored without a verdict (ScoreBatch)", el)
	e.learned = reg.Counter("engine_learned_total", "messages trained via LearnStream", el)
	e.batches = reg.Counter("engine_batches_total", "completed batch calls (ClassifyBatch and ScoreBatch)", el)
	for i := Ham; i <= Spam; i++ {
		e.byLabel[i] = reg.Counter("engine_classified_total", "classification verdicts by label", el, obs.L("label", i.String()))
	}
	e.batchLat = reg.Histogram("engine_batch_seconds", "batch call wall-clock latency", nil, el)
	e.classifyLat = reg.Histogram("engine_classify_seconds", "single-message classify latency (the at-delivery hot path)", nil, el)
	e.learnLat = reg.Histogram("engine_learn_seconds", "per-example LearnStream training latency", nil, el)
	e.publishes = reg.Counter("engine_publishes_total", "snapshot publishes (Retrain, RetrainIncremental, Swap) by this process", el)
	e.admitted = reg.Counter("engine_admission_total", "admission decisions on training candidates, by verdict", el, obs.L("verdict", AdmitAccept.String()))
	e.quarantined = reg.Counter("engine_admission_total", "admission decisions on training candidates, by verdict", el, obs.L("verdict", AdmitQuarantine.String()))
	e.admitRejected = reg.Counter("engine_admission_total", "admission decisions on training candidates, by verdict", el, obs.L("verdict", AdmitReject.String()))
	reg.GaugeFunc("engine_generation", "serving snapshot generation", func() float64 { return float64(e.Generation()) }, el)
	return e
}

// Classifier returns the currently serving classifier.
func (e *Engine) Classifier() Classifier { return e.cur.Load().clf }

// Snapshot returns the currently serving classifier and its
// generation number in one consistent read.
func (e *Engine) Snapshot() (Classifier, uint64) {
	s := e.cur.Load()
	return s.clf, s.gen
}

// Generation returns the serving snapshot's generation number. It
// starts at 1 and increases by one per published replacement.
func (e *Engine) Generation() uint64 { return e.cur.Load().gen }

// Name returns the engine's stats label.
func (e *Engine) Name() string { return e.name }

// Workers returns the effective batch parallelism.
func (e *Engine) Workers() int { return e.workers }

// Result is one message's verdict.
type Result struct {
	Label Label
	Score float64
}

// Classify scores one message against the current snapshot — the
// at-delivery verdict an online deployment hands the user while
// retraining may be running in the background. Its wall-clock cost is
// tracked in Stats.ClassifyLatency, so the online hot path is as
// visible as batch scoring.
func (e *Engine) Classify(m *mail.Message) Result {
	start := time.Now()
	s := e.cur.Load()
	ts := s.clf.Tokenizer().Stream(m)
	label, score := s.clf.ClassifyTokenStream(ts)
	e.classifyLat.ObserveSince(start)
	e.byLabel[labelIndex(label)].Inc()
	e.traceClassify(s.gen, ts, label, score)
	return Result{Label: label, Score: score}
}

// traceClassify records a sampled classify verdict.
func (e *Engine) traceClassify(gen uint64, ts *tokenize.TokenStream, label Label, score float64) {
	if d := ts.Digest(); e.trace.Sampled(d) {
		e.trace.Record(obs.TraceEvent{
			Kind: obs.TraceClassify, Digest: d, Generation: gen,
			Shard: e.shard, Verdict: label.String(), Score: score,
		})
	}
}

// ClassifyBatch scores msgs across the worker pool and returns the
// results in input order: out[i] is the verdict of msgs[i]. The whole
// batch is scored against one snapshot, even if a retrain publishes
// mid-batch. It stops early and returns ctx.Err() if the context is
// cancelled.
func (e *Engine) ClassifyBatch(ctx context.Context, msgs []*mail.Message) ([]Result, error) {
	s := e.cur.Load()
	tok := s.clf.Tokenizer()
	out := make([]Result, len(msgs))
	err := e.run(ctx, len(msgs), func(i int) {
		ts := tok.Stream(msgs[i])
		label, score := s.clf.ClassifyTokenStream(ts)
		e.traceClassify(s.gen, ts, label, score)
		out[i] = Result{Label: label, Score: score}
	})
	if err != nil {
		return nil, err
	}
	for i := range out {
		e.byLabel[labelIndex(out[i].Label)].Inc()
	}
	return out, nil
}

// ScoreBatch is ClassifyBatch without thresholding: out[i] is the
// spam score of msgs[i]. Score-only traffic produces no verdicts, so
// it counts toward Stats.Scored, not Classified — keeping the
// invariant sum(ByLabel) == Classified intact.
func (e *Engine) ScoreBatch(ctx context.Context, msgs []*mail.Message) ([]float64, error) {
	clf := e.cur.Load().clf
	tok := clf.Tokenizer()
	out := make([]float64, len(msgs))
	err := e.run(ctx, len(msgs), func(i int) {
		out[i] = clf.ScoreTokenStream(tok.Stream(msgs[i]))
	})
	if err != nil {
		return nil, err
	}
	e.scored.Add(uint64(len(msgs)))
	return out, nil
}

// run executes fn(0..n-1) on the worker pool, counting batch calls
// and latency; callers publish their own message counters (Classified
// vs. Scored) once the batch completes.
func (e *Engine) run(ctx context.Context, n int, fn func(i int)) error {
	if n == 0 {
		return ctx.Err()
	}
	start := time.Now()
	workers := e.workers
	if workers > n {
		workers = n
	}
	if err := ParallelFor(ctx, n, workers, fn); err != nil {
		return err
	}
	e.batches.Inc()
	e.batchLat.ObserveSince(start)
	return nil
}

// Retrain builds a fresh classifier from factory, trains it on train,
// and publishes it as the new serving snapshot in one atomic swap.
// Scoring continues against the previous snapshot for the whole build
// and never observes the half-trained replacement. Publishers are
// serialized (retraining is single-writer); concurrent scoring is
// never blocked. It returns the new snapshot's generation, or the
// current generation and ctx.Err() if cancelled mid-build (the
// serving snapshot is then left unchanged).
func (e *Engine) Retrain(ctx context.Context, factory Factory, train *corpus.Corpus) (uint64, error) {
	if factory == nil {
		panic("engine: Retrain with nil factory")
	}
	e.publishMu.Lock()
	defer e.publishMu.Unlock()
	replacement := factory()
	if err := trainAll(ctx, replacement, train); err != nil {
		return e.cur.Load().gen, err
	}
	return e.publishLocked(replacement), nil
}

// RetrainIncremental clones the serving snapshot, trains only delta
// into the clone, and publishes the clone — the cheap path when the
// new training data is a small addition to what the snapshot already
// knows (a week's kept mail versus the whole store). It requires the
// serving classifier to be a Cloner and returns an error naming the
// type otherwise.
func (e *Engine) RetrainIncremental(ctx context.Context, delta *corpus.Corpus) (uint64, error) {
	e.publishMu.Lock()
	defer e.publishMu.Unlock()
	cur := e.cur.Load()
	cloner, ok := cur.clf.(Cloner)
	if !ok {
		return cur.gen, fmt.Errorf("engine: %T is not a Cloner; use Retrain", cur.clf)
	}
	replacement := cloner.CloneClassifier()
	if err := trainAll(ctx, replacement, delta); err != nil {
		return cur.gen, err
	}
	return e.publishLocked(replacement), nil
}

// Swap publishes an externally built classifier as the new serving
// snapshot and returns its generation. Callers that build
// replacements themselves (a deployment simulator overlapping the
// build with next week's deliveries, a process loading a database
// from disk) use it as the raw publish primitive under the same
// single-writer serialization as Retrain. The classifier must not be
// mutated after the call.
func (e *Engine) Swap(clf Classifier) uint64 {
	if clf == nil {
		panic("engine: Swap with nil classifier")
	}
	e.publishMu.Lock()
	defer e.publishMu.Unlock()
	return e.publishLocked(clf)
}

// publishLocked installs clf as the next generation. Callers hold
// publishMu. Publish events always trace (they are generation-scoped,
// not message-scoped, so sampling does not apply).
func (e *Engine) publishLocked(clf Classifier) uint64 {
	gen := e.cur.Load().gen + 1
	e.cur.Store(&snapshot{clf: clf, gen: gen})
	e.publishes.Inc()
	e.trace.Record(obs.TraceEvent{Kind: obs.TracePublish, Generation: gen, Shard: e.shard})
	return gen
}

// trainAll trains every example of c into clf, checking ctx between
// examples.
func trainAll(ctx context.Context, clf Classifier, c *corpus.Corpus) error {
	for _, ex := range c.Examples {
		if err := ctx.Err(); err != nil {
			return err
		}
		clf.Learn(ex.Msg, ex.Spam)
	}
	return nil
}

// Labeled is one training example flowing through LearnStream. Stream,
// when non-nil, is Msg tokenized once upstream (a guarded stream's
// vetting stage tokenizes each candidate exactly once and forwards the
// stream here), and the learner trains on it instead of re-tokenizing
// Msg. Producers without a stream leave it nil and the learner
// tokenizes Msg itself.
type Labeled struct {
	Msg    *mail.Message
	Stream *tokenize.TokenStream
	Spam   bool
}

// LearnStream starts a single-consumer bulk-training stream into the
// snapshot current at stream start: send examples on the returned
// channel, close it, then call wait for the count of examples
// learned. The channel is buffered (Config LearnBuffer) so producers
// — an mbox reader, a corpus generator — run ahead of the learner.
// Training mutates the snapshot's classifier in place (single-writer
// on one goroutine), so the stream is for bulk loading before the
// engine starts serving; a live deployment retrains through
// Retrain's snapshot swap instead.
//
// If ctx is cancelled, remaining examples are discarded and wait
// returns ctx.Err(). The stream keeps draining until wait observes
// the cancellation, so a producer blocked on a full buffer is
// released without having to close the channel. Producers running in
// other goroutines must stop sending (or close the channel) before
// wait is called — a send racing wait's return can block forever,
// exactly like a send racing a close.
func (e *Engine) LearnStream(ctx context.Context) (chan<- Labeled, func() (int, error)) {
	cur := e.cur.Load()
	clf := cur.clf
	gen := cur.gen
	tok := clf.Tokenizer()
	in := make(chan Labeled, e.learnBuf)
	done := make(chan struct{})
	stop := make(chan struct{})
	var stopOnce sync.Once
	var n int
	var err error
	go func() {
		defer close(done)
		for {
			select {
			case <-ctx.Done():
				err = ctx.Err()
				// Keep draining so a producer blocked on a full
				// buffer can finish; the drain stops once wait
				// observes the cancellation instead of leaking until
				// an abandoned channel is closed.
				go drainUntil(in, stop)
				return
			case ex, ok := <-in:
				if !ok {
					return
				}
				start := time.Now()
				ts := ex.Stream
				if ts == nil {
					ts = tok.Stream(ex.Msg)
				}
				clf.LearnTokenStream(ts, ex.Spam, 1)
				e.learnLat.ObserveSince(start)
				e.learned.Inc()
				if d := ts.Digest(); e.trace.Sampled(d) {
					e.trace.Record(obs.TraceEvent{
						Kind: obs.TraceLearn, Digest: d, Generation: gen, Shard: e.shard,
					})
				}
				n++
			}
		}
	}()
	wait := func() (int, error) {
		<-done
		stopOnce.Do(func() { close(stop) })
		return n, err
	}
	return in, wait
}

// drainUntil keeps receiving from a cancelled stream's channel so a
// producer blocked on a full buffer can finish, stopping once stop is
// closed (when the stream's wait observes the cancellation) instead
// of leaking until an abandoned channel is closed. Shared by
// Engine.LearnStream and the Sharded router, whose drain contract
// must not drift apart.
func drainUntil(in <-chan Labeled, stop <-chan struct{}) {
	for {
		select {
		case _, ok := <-in:
			if !ok {
				return
			}
		case <-stop:
			// Release any sender blocked right now, then quit. A
			// closed channel is always receivable, so check ok or the
			// flush would spin forever.
			for {
				select {
				case _, ok := <-in:
					if !ok {
						return
					}
				default:
					return
				}
			}
		}
	}
}

// Stats is a point-in-time snapshot of an engine's counters.
type Stats struct {
	Name string
	// Generation is the serving snapshot's generation (1 is the
	// classifier the engine was constructed over).
	Generation uint64
	// Retrains is the number of snapshot publishes (Retrain,
	// RetrainIncremental, Swap) since the generation line began —
	// always Generation - 1, reported for readability. An engine
	// resumed from a persisted snapshot (NewAt) inherits the line, so
	// pre-restart publishes count.
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
	// Learned is the total number of messages trained via LearnStream.
	Learned uint64
	// Batches is the number of completed batch calls (ClassifyBatch
	// and ScoreBatch).
	Batches uint64
	// ByLabel counts classification verdicts, indexed by Label.
	ByLabel [3]uint64
	// Publishes is the number of snapshot publishes performed by this
	// process. Unlike Retrains it does not count pre-restart publishes
	// an inherited generation line carries, so on a resumed engine
	// Publishes < Retrains.
	Publishes uint64
	// BatchLatency is the cumulative wall-clock time spent in
	// completed batch calls, derived from the batch latency histogram's
	// sum (the buckets behind it are exposed via /metrics).
	BatchLatency time.Duration
	// ClassifyLatency is the cumulative wall-clock time spent in
	// single-message Classify calls — the online at-delivery hot path.
	ClassifyLatency time.Duration
	// LearnLatency is the cumulative wall-clock time spent training
	// examples in LearnStream.
	LearnLatency time.Duration
	// Admission counts training candidates vetted through a Guarded
	// wrapper (zero on an unguarded engine). Its Vetted total is
	// derived from the per-verdict loads, so Vetted ==
	// Admitted+Quarantined+Rejected holds by construction.
	Admission AdmissionStats
}

// Stats returns the current counters. Counters from a batch are
// published only when the batch completes, so a snapshot is always
// internally consistent to within the in-flight batch.
func (e *Engine) Stats() Stats {
	gen := e.cur.Load().gen
	byLabel := [3]uint64{
		e.byLabel[0].Value(),
		e.byLabel[1].Value(),
		e.byLabel[2].Value(),
	}
	return Stats{
		Name:            e.name,
		Generation:      gen,
		Retrains:        gen - 1,
		Classified:      byLabel[0] + byLabel[1] + byLabel[2],
		Scored:          e.scored.Value(),
		Learned:         e.learned.Value(),
		Batches:         e.batches.Value(),
		ByLabel:         byLabel,
		Publishes:       e.publishes.Value(),
		BatchLatency:    e.batchLat.SumDuration(),
		ClassifyLatency: e.classifyLat.SumDuration(),
		LearnLatency:    e.learnLat.SumDuration(),
		Admission:       e.admissionStats(),
	}
}

// labelIndex clamps a label into the counter array.
func labelIndex(l Label) int {
	if l < Ham || l > Spam {
		return int(Unsure)
	}
	return int(l)
}
