package core

import (
	"fmt"

	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/mail"
	"repro/internal/sbayes"
	"repro/internal/stats"
	"repro/internal/tokenize"
)

// RONI implements the Reject On Negative Impact defense (§5.1): the
// incremental effect of a query email Q is measured by training with
// and without Q on small sampled training sets and comparing
// performance on sampled validation sets; messages whose effect is
// significantly negative are excluded from training.
//
// Following the paper's preliminary experiment, each trial samples a
// 20-message training set T and a 50-message validation set V from
// the pool, and Q's impact is the average over trials of the change
// in validation classifications when training on T ∪ {Q} versus T.
// The headline statistic is the decrease in ham-classified-as-ham:
// dictionary attack messages cost at least 6.8 ham-as-ham on average
// in the paper, non-attack spam at most 4.4, so a simple threshold
// separates them.
type RONIConfig struct {
	// TrainSize is |T| (paper: 20).
	TrainSize int
	// ValSize is |V| (paper: 50).
	ValSize int
	// Trials is the number of independent (T, V) samples (paper: 5).
	Trials int
	// SpamPrevalence is the spam fraction of T and V (paper: 0.5).
	SpamPrevalence float64
	// Threshold rejects Q when its mean ham-as-ham decrease is at
	// least this many messages. The paper's measured gap (6.8 vs
	// 4.4) makes 5.5 a natural default.
	Threshold float64
}

// DefaultRONIConfig returns the paper's parameters.
func DefaultRONIConfig() RONIConfig {
	return RONIConfig{
		TrainSize:      20,
		ValSize:        50,
		Trials:         5,
		SpamPrevalence: 0.5,
		Threshold:      5.5,
	}
}

// Validate checks the configuration.
func (c RONIConfig) Validate() error {
	switch {
	case c.TrainSize < 2:
		return fmt.Errorf("core: RONI TrainSize %d", c.TrainSize)
	case c.ValSize < 1:
		return fmt.Errorf("core: RONI ValSize %d", c.ValSize)
	case c.Trials < 1:
		return fmt.Errorf("core: RONI Trials %d", c.Trials)
	case c.SpamPrevalence < 0 || c.SpamPrevalence > 1:
		return fmt.Errorf("core: RONI SpamPrevalence %v", c.SpamPrevalence)
	case c.Threshold < 0:
		return fmt.Errorf("core: RONI Threshold %v", c.Threshold)
	}
	return nil
}

// Impact summarizes a query email's measured effect on validation
// performance, averaged over trials. Negative deltas are harmful.
type Impact struct {
	// HamAsHamDelta is the mean change in validation ham classified
	// as ham after training on Q (the paper's separation statistic).
	HamAsHamDelta float64
	// CorrectDelta is the mean change in correctly classified
	// validation messages (ham as ham + spam as spam).
	CorrectDelta float64
}

// roniTrial is one sampled (T, V) pair with its baseline counts: V is
// bound to the trial's filter, so a probe labels V as if Q were
// learned, in one pass, without touching the filter.
type roniTrial struct {
	bound       engine.ValidationSet
	labels      []engine.Label // bound's output, reused per probe
	val         []corpus.Example
	baseHamHam  int
	baseCorrect int
}

// RONI is a reusable impact evaluator over one message pool. It works
// against any backend: trial filters are built clone-and-train style
// from a fresh classifier per trial, and each trial's validation set is
// bound to its filter (engine.ValidationBinder), so a tokenized query
// is measured without mutating the trial filters. An evaluator is not
// safe for concurrent use.
type RONI struct {
	cfg RONIConfig
	// tok tokenizes the query of a MeasureImpact call. A factory hands
	// every trial an identically configured tokenizer, so one
	// tokenization of the query serves all trials.
	tok    *tokenize.Tokenizer
	trials []roniTrial
}

// NewRONI samples the trial training and validation sets from pool
// and trains per-trial baseline SpamBayes filters. The pool must be
// large enough for TrainSize+ValSize messages per class split. For
// other backends use NewRONIBackend.
func NewRONI(cfg RONIConfig, pool *corpus.Corpus, opts sbayes.Options, tok *tokenize.Tokenizer, r *stats.RNG) (*RONI, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if tok == nil {
		tok = tokenize.Default()
	}
	return newRONI(cfg, pool, func() engine.Classifier { return sbayes.New(opts, tok) }, r)
}

// NewRONIBackend is NewRONI against an arbitrary backend: each trial
// filter comes from newClassifier (typically a registered Backend's
// New).
func NewRONIBackend(cfg RONIConfig, pool *corpus.Corpus, newClassifier engine.Factory, r *stats.RNG) (*RONI, error) {
	return newRONI(cfg, pool, newClassifier, r)
}

func newRONI(cfg RONIConfig, pool *corpus.Corpus, newClassifier engine.Factory, r *stats.RNG) (*RONI, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &RONI{cfg: cfg}
	for t := 0; t < cfg.Trials; t++ {
		tr := r.Split(fmt.Sprintf("roni-trial-%d", t))
		sample, err := pool.SampleInbox(tr, cfg.TrainSize+cfg.ValSize, cfg.SpamPrevalence)
		if err != nil {
			return nil, fmt.Errorf("core: RONI trial %d: %w", t, err)
		}
		trainSet := sample.Examples[:cfg.TrainSize]
		valSet := sample.Examples[cfg.TrainSize:]
		clf := newClassifier()
		for _, e := range trainSet {
			clf.Learn(e.Msg, e.Spam)
		}
		d.tok = clf.Tokenizer()
		// Tokenize the validation set once and bind it once.
		streams := make([]*tokenize.TokenStream, len(valSet))
		for i, e := range valSet {
			streams[i] = d.tok.Stream(e.Msg)
		}
		trial := roniTrial{bound: clf.BindValidation(streams), labels: make([]engine.Label, len(valSet)), val: valSet}
		trial.baseHamHam, trial.baseCorrect = trial.evaluate(nil, false)
		d.trials = append(d.trials, trial)
	}
	return d, nil
}

// evaluate labels the validation set as if q (nil: nothing) had been
// learned with label qSpam, returning ham-as-ham and total correct
// counts.
func (t *roniTrial) evaluate(q *tokenize.TokenStream, qSpam bool) (hamHam, correct int) {
	t.bound.ClassifyWith(q, qSpam, t.labels)
	for i, e := range t.val {
		if e.Spam {
			if t.labels[i] == engine.Spam {
				correct++
			}
		} else {
			if t.labels[i] == engine.Ham {
				hamHam++
				correct++
			}
		}
	}
	return hamHam, correct
}

// Config returns the defense configuration.
func (d *RONI) Config() RONIConfig { return d.cfg }

// MeasureImpact computes Q's impact: each trial re-scores its
// validation set as its filter would after learning Q (as spam or ham
// per qSpam), leaving the evaluator unchanged. Callers already holding
// Q's token stream should use MeasureImpactStream instead, so Q is
// tokenized at most once across the whole serving path.
func (d *RONI) MeasureImpact(q *mail.Message, qSpam bool) Impact {
	return d.MeasureImpactStream(q, d.tok.Stream(q), qSpam)
}

// MeasureImpactStream is MeasureImpact for a query already tokenized
// once by the caller: ts, never nil, is q's token stream, and it is
// all the measurement reads.
func (d *RONI) MeasureImpactStream(q *mail.Message, ts *tokenize.TokenStream, qSpam bool) Impact {
	var hamHamDelta, correctDelta float64
	for i := range d.trials {
		t := &d.trials[i]
		hh, corr := t.evaluate(ts, qSpam)
		hamHamDelta += float64(hh - t.baseHamHam)
		correctDelta += float64(corr - t.baseCorrect)
	}
	n := float64(len(d.trials))
	return Impact{HamAsHamDelta: hamHamDelta / n, CorrectDelta: correctDelta / n}
}

// ShouldReject reports whether Q's impact is significantly negative:
// the mean ham-as-ham decrease reaches the configured threshold.
func (d *RONI) ShouldReject(q *mail.Message, qSpam bool) bool {
	return d.MeasureImpact(q, qSpam).HamAsHamDelta <= -d.cfg.Threshold
}

// FilterCorpus partitions candidate training messages into kept and
// rejected sets, the integration a deployment would run before
// retraining. Messages are evaluated independently.
func (d *RONI) FilterCorpus(candidates *corpus.Corpus) (kept, rejected *corpus.Corpus) {
	kept, rejected = &corpus.Corpus{}, &corpus.Corpus{}
	for _, e := range candidates.Examples {
		if d.ShouldReject(e.Msg, e.Spam) {
			rejected.Add(e.Msg, e.Spam)
		} else {
			kept.Add(e.Msg, e.Spam)
		}
	}
	return kept, rejected
}
