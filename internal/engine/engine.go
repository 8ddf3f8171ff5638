// Package engine defines the backend-generic classifier contract and
// a production-shaped scoring service on top of it.
//
// The paper's central claim is that Causative Availability attacks
// exploit the statistical learning approach itself, not one filter
// implementation. The repository therefore carries more than one
// learner (the SpamBayes chi-square combiner in internal/sbayes and
// Graham's naive-Bayes baseline in internal/graham), and everything
// downstream — evaluation, the RONI defense, the deployment
// simulator, the experiment drivers — speaks to them through the
// Classifier interface declared here rather than to a concrete type.
//
// The package has these layers:
//
//   - the contract: Classifier, which every backend implements in
//     whole over token streams. It embeds Tokenizing, StreamClassifier
//     and StreamLearner, so the engine tokenizes each message once and
//     scores, vets and learns that one stream, and Persistable,
//     Cloner, ValidationBinder and ThresholdSetter, so persistence,
//     incremental retraining, RONI probes and the dynamic threshold
//     call them on any classifier without a type assertion. The two
//     stock backends differ only in their scoring rules: both embed one
//     token-count database (internal/tokendb), so the message and
//     stream learners, Counts and VocabSize have one implementation;
//   - the Backend registry, keyed by name ("sbayes", "graham"), which
//     backends join from their package init and callers query to pick
//     a learner per deployment configuration;
//   - Engine, the one serving type: a zero-downtime scoring service
//     over one logical filter partitioned across N >= 1 shards routed
//     by a recipient-address hash (pluggable ShardKey). Every shard's
//     classifier and the one generation they serve at sit behind a
//     single atomically swappable epoch, so ClassifyBatch/ScoreBatch
//     and single-message Classify read one load and every verdict
//     comes from one published model; Swap builds the whole next epoch
//     and stores it once, and a published epoch is never trained in
//     place; Stats carries the combined counters beside the per-shard
//     breakdown;
//   - Guarded, the one admission guard and the one training path: it
//     vets an engine's training candidates once, at the gateway,
//     counts each decision on the shard the example routes to, trains
//     exactly the token streams it vetted (RetrainIncremental), and
//     runs the publish hooks — PrePublish on every shard's replacement
//     before anything publishes, PostPublish once per publish. The
//     token stream is the one training contract: a candidate is
//     tokenized once, and that stream — never nil — is what the
//     admitter judges, the quarantine holds (a resumed hold is
//     tokenized once at resume) and the learner trains;
//   - persistence: SaveEngine/ResumeEngine write and restore one
//     checksummed record per save, holding every shard's classifier at
//     the epoch's generation, and SaveGuarded/ResumeGuarded
//     (Guarded.Resume in place) carry the guard's admission state in
//     the same record.
//
// A single engine is the one-shard case. With N == 1 the routing key
// is never called, the shard keeps the engine's bare name as its stats
// label, and its trace events carry shard -1, so the guard, the
// serving daemon, persistence (SaveGuarded writes one record under
// "name" for any shard count) and the online simulator each have one
// code path for every shard count.
package engine

import (
	"fmt"
	"io"

	"repro/internal/mail"
	"repro/internal/tokenize"
)

// Label is the three-way verdict shared by every backend. Backends
// without an unsure band (Graham's binary rule) simply never return
// Unsure.
type Label int8

const (
	// Ham is legitimate email.
	Ham Label = iota
	// Unsure is the in-between verdict of filters that have one.
	Unsure
	// Spam is unsolicited email.
	Spam
)

// String returns the lowercase label name.
func (l Label) String() string {
	switch l {
	case Ham:
		return "ham"
	case Unsure:
		return "unsure"
	case Spam:
		return "spam"
	default:
		return fmt.Sprintf("Label(%d)", int(l))
	}
}

// Classifier is the backend-generic learner contract: incremental
// training and untraining plus scoring, over a message or over the
// token stream the classifier's own tokenizer makes of it, and the
// save, clone, validation-binding and threshold-setting the serving
// daemon and the defenses build on. The stream methods are the
// contract the serving path uses — the engine tokenizes each message
// exactly once at the batch boundary, and scoring, admission vetting
// and learning all consume that one stream — while the message methods
// are the convenience over them. The stock backends take every learner
// and the counts from the one token-count database they embed
// (internal/tokendb) and implement only scoring, validation binding,
// thresholds and their database format. Implementations are not
// required to be safe for concurrent mutation, but concurrent
// Classify/Score calls (message or stream) without interleaved Learn
// calls must be safe — Engine relies on that to parallelize batches.
type Classifier interface {
	Tokenizing
	StreamClassifier
	StreamLearner
	Persistable
	Cloner
	ValidationBinder
	ThresholdSetter
	// Learn trains on one message with the given label.
	Learn(m *mail.Message, isSpam bool)
	// LearnWeighted trains as if weight identical copies of the
	// message were learned. It panics if weight < 0.
	LearnWeighted(m *mail.Message, isSpam bool, weight int)
	// Unlearn removes one previously trained message, returning an
	// error (and leaving the state unchanged) if the counts show the
	// message was never trained with this label.
	Unlearn(m *mail.Message, isSpam bool) error
	// Classify returns the verdict and the spam score in [0, 1].
	Classify(m *mail.Message) (Label, float64)
	// Score returns the spam score in [0, 1] without thresholding.
	Score(m *mail.Message) float64
	// Counts returns the number of spam and ham messages trained.
	Counts() (nspam, nham int)
	// VocabSize returns the number of distinct tokens with a nonzero
	// count.
	VocabSize() int
	// BackendName returns the registry name of the classifier's
	// backend, which a save stamps its record with so resume can
	// rebuild it.
	BackendName() string
}

// StreamClassifier scores a tokenized message (a tokenize.TokenStream)
// directly. Classifier embeds it; the name stays so code that needs
// only scoring can say so.
type StreamClassifier interface {
	ClassifyTokenStream(ts *tokenize.TokenStream) (Label, float64)
	ScoreTokenStream(ts *tokenize.TokenStream) float64
}

// StreamLearner trains directly on a tokenized message. The stream
// carries per-token occurrence counts, so occurrence-counting backends
// (Graham) recover exactly what they would have read from the raw
// message, and presence backends (SpamBayes) simply ignore the counts.
type StreamLearner interface {
	LearnTokenStream(ts *tokenize.TokenStream, isSpam bool, weight int)
	UnlearnTokenStream(ts *tokenize.TokenStream, isSpam bool, weight int) error
}

// Persistable saves durable state and restores it in place: a
// classifier's trained database (Classifier embeds it), and the
// admission state of a guard's admitter and quarantine sink, which
// SaveGuarded saves beside the classifiers when they implement it.
// Load replaces the receiver's entire state with the stream's
// contents; the stock implementations leave the receiver unchanged when
// the stream does not decode.
type Persistable interface {
	Save(w io.Writer) error
	Load(r io.Reader) error
}

// Tokenizing exposes the tokenizer the classifier trains and scores
// with, so callers tokenize messages and corpora exactly as the
// backend would. Classifier embeds it.
type Tokenizing interface {
	Tokenizer() *tokenize.Tokenizer
}

// ValidationBinder binds a fixed validation set to the classifier
// once, so it can be labeled many times cheaply. Classifier embeds it.
// The RONI defense's clone-and-probe trials use it: each trial labels
// the same validation messages once per probe, as if the probed
// message were learned, and binding resolves their tokens to the
// classifier's interned ids a single time instead of on every probe.
type ValidationBinder interface {
	BindValidation(streams []*tokenize.TokenStream) ValidationSet
}

// ValidationSet is a validation set bound to one classifier. It reads
// the classifier's live counts, so it stays valid while the classifier
// learns, but it keeps scratch buffers and is not safe for concurrent
// use. A set may keep tables computed from the counts: the first
// evaluation after a learn or unlearn then rebuilds them, at about the
// cost of a bind.
type ValidationSet interface {
	// ClassifyWith writes into out[i] the label the classifier would
	// give bound stream i after also learning q (weight 1) with label
	// qSpam — without mutating the classifier. A nil q labels the set
	// as the classifier stands. The labels equal what Learn,
	// ClassifyTokenStream and Unlearn would produce.
	ClassifyWith(q *tokenize.TokenStream, qSpam bool, out []Label)
}

// Cloner deep-copies the trained state into an independent
// classifier. Classifier embeds it. Guarded.RetrainIncremental uses it
// to branch the next serving snapshot off the current one and train
// only the new examples into the branch; experiments use it to fork a
// poisoned filter off a shared clean baseline. (Backends keep their
// concrete-typed Clone for callers that need the full surface;
// CloneClassifier is the interface-typed view of the same copy.)
type Cloner interface {
	CloneClassifier() Classifier
}

// ThresholdSetter replaces a classifier's decision thresholds after
// training, as the §5.2 dynamic-threshold defense does when it refits
// cutoffs to the live score distribution. Classifier embeds it.
// SpamBayes sets (θ0, θ1); Graham's binary rule uses the spam cutoff
// and ignores θ0.
type ThresholdSetter interface {
	SetThresholds(hamCutoff, spamCutoff float64) error
}
