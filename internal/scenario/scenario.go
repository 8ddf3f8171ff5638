// Package scenario simulates the paper's §2.1 deployment model end to
// end: an organization filters everyone's incoming email with one
// filter and retrains it periodically (e.g., weekly) on the
// accumulated mail store. Attack emails arrive in the weekly stream
// like any other mail and are labeled spam when training (the
// contamination assumption, §2.2) — and, optionally, a RONI scrubbing
// step (§5.1) vets every new training candidate before it enters the
// store.
//
// Two simulators share the machinery:
//
//   - Run measures the classic after-the-fact view: retrain at each
//     week's end, then score a fresh test corpus against the new
//     filter.
//   - RunOnline measures what users actually experienced: every
//     message (organic and attack) is scored one at a time through a
//     serving engine.Engine (one shard unless Config.Shards says
//     otherwise) as it arrives, the at-delivery verdicts accumulate
//     into per-week confusions, and retraining happens in the
//     background — the replacement snapshot is built concurrently with
//     the next week's deliveries and published by atomic swap
//     RetrainLag messages in, so early-week mail is still judged by
//     the previous generation.
//
// The simulator ties every subsystem of this repository together:
// corpus generation, the learner, the attacks, the defense, the
// serving engine, and the evaluation metrics, week by week.
package scenario

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/mail"
	"repro/internal/stats"
	"repro/internal/textgen"

	// Register the stock backends so a Config can name them.
	_ "repro/internal/graham"
	_ "repro/internal/sbayes"
)

// RetrainMode selects how RunOnline rebuilds the serving snapshot at
// each week boundary. Run always retrains periodically.
type RetrainMode int

const (
	// RetrainPeriodic rebuilds a fresh classifier from the entire
	// accumulated store — the paper's §2.1 weekly retrain.
	RetrainPeriodic RetrainMode = iota
	// RetrainIncremental clones the serving snapshot and trains only
	// the week's newly kept mail into the clone (both token-count
	// backends are additive, so the result matches a full rebuild at a
	// fraction of the cost).
	RetrainIncremental
)

// String names the mode for traces and errors.
func (m RetrainMode) String() string {
	switch m {
	case RetrainPeriodic:
		return "periodic"
	case RetrainIncremental:
		return "incremental"
	default:
		return fmt.Sprintf("RetrainMode(%d)", int(m))
	}
}

// Config parameterizes a simulated deployment.
type Config struct {
	// Backend names the learner the organization deploys, from the
	// engine registry ("sbayes", "graham"; empty selects "sbayes").
	// Attack-transfer scenarios run the same attack stream against
	// different backends by varying only this field.
	Backend string
	// Weeks is how many retraining periods to simulate.
	Weeks int
	// InitialMailStore is the clean bootstrap corpus size.
	InitialMailStore int
	// MessagesPerWeek is the weekly legitimate mail volume.
	MessagesPerWeek int
	// SpamPrevalence is the spam fraction of organic mail.
	SpamPrevalence float64
	// TestSize is the fresh per-week evaluation corpus size (Run
	// only; RunOnline records at-delivery verdicts instead).
	TestSize int

	// Attack, if non-nil, injects attack emails into the weekly
	// stream from AttackStartWeek on, AttackFraction of the weekly
	// volume.
	Attack          core.Attacker
	AttackStartWeek int
	AttackFraction  float64
	// AttackChunks, when > 1, splits the attack payload across that
	// many distinct emails (the §4.2 stealth variant) and cycles the
	// weekly attack volume through them. It requires an attacker with
	// the core.ChunkedAttacker capability. 0 or 1 replicates one
	// attack email, as the paper's attacks do.
	AttackChunks int
	// AttackAdaptive lets the attacker adapt its weekly dose to
	// observed feedback (RunOnline only): each week's volume is
	// AttackFraction scaled by the attacker's learned multiplier, and
	// at week's end the attacker observes how much of its poison the
	// training pipeline accepted (arrivals minus rejections and
	// quarantines). It requires an attack with the
	// core.FeedbackAttacker capability (core.AdaptiveAttacker wraps
	// any attack with one).
	AttackAdaptive bool
	// AttackLabelHam delivers attack messages with ham training labels
	// — the §2.2 pseudospam variant, lifted from the paper's
	// spam-labeled restriction — to stress defenses that only distrust
	// spam-labeled mail. At-delivery confusions still count attack
	// mail as true spam (it is the attacker's); only its training
	// label changes.
	AttackLabelHam bool

	// UseRONI inserts the §5.1 defense into the retraining pipeline:
	// each week's candidates are measured against samples of the
	// existing (trusted) mail store and rejected on negative impact.
	UseRONI bool
	RONI    core.RONIConfig

	// Admission, if non-nil, replaces the week-end batch defense with
	// the inline vetting pipeline (RunOnline only, mutually exclusive
	// with UseRONI): every candidate is vetted as it arrives through
	// an engine.Guarded chain (TokenFloodGate → budgeted
	// IncrementalRONI → Quarantine), and each snapshot swap refits the
	// dynamic thresholds, refreshes the calibration pool, and reviews
	// the quarantine. Weekly reports carry the per-decision split
	// (organic vs. attack) and the probe accounting against what one
	// week-end batch pass would have cost.
	Admission *AdmissionConfig

	// Retraining selects RunOnline's rebuild strategy (periodic full
	// rebuild by default, or incremental clone-and-extend).
	Retraining RetrainMode
	// RetrainLag is how many of the following week's messages are
	// delivered before the retrained snapshot goes live (RunOnline
	// only): the replacement is built in the background while those
	// messages are still scored by the previous generation. 0
	// publishes right at the boundary; values beyond the weekly volume
	// publish at the next boundary.
	RetrainLag int

	// Shards, when > 1, serves RunOnline deliveries through a
	// hash-by-recipient engine.Engine of that many shards: the
	// generator's messages are stamped with recipients from a fixed
	// user population, each shard serves — and is retrained on — only
	// the mail routed to it, and per-shard Delivered confusions
	// separate the attack's damage to the target's shard from
	// collateral damage elsewhere. 0 or 1 keeps the single-engine
	// deployment.
	Shards int
	// Recipients is the distinct user population in sharded mode (0
	// selects four per shard). Organic mail is stamped uniformly
	// across the population.
	Recipients int
	// AttackRecipient, when non-empty, stamps every attack email with
	// that recipient, so the poison trains into a single user's shard
	// — the sharded rendition of the paper's §4.3 targeted setting.
	// Empty spreads attack mail across the population like organic
	// mail. Sharded mode only.
	AttackRecipient string

	// Checkpoints, if non-nil, makes the online deployment durable:
	// every CheckpointEvery-th snapshot publish is persisted into the
	// store through the engine persistence layer (the bootstrap
	// snapshot is saved up front, so a crash in week 1 still has a
	// restart point). Each save is one record of every shard at the
	// fleet's generation, under the name "scenario-online" in
	// single-engine mode and "scenario-sharded" in sharded mode.
	// RunOnline only.
	Checkpoints engine.SnapshotStore
	// CheckpointEvery saves every Nth publish (<= 0 selects 1, every
	// publish). A value above 1 models a deployment that checkpoints
	// less often than it retrains — after a crash it resumes an older
	// generation, and the trace shows the regression.
	CheckpointEvery int
	// CrashAtWeek, if > 0, simulates a process crash at the end of
	// that week: the serving engine (every shard, in sharded mode) is
	// discarded and resumed from Checkpoints' newest record whose every
	// shard loads, so the following weeks are served — and incremental
	// retrains are branched — from the restored snapshot. Requires
	// Checkpoints. The crash point is fixed in simulated time, so the
	// trace stays deterministic.
	CrashAtWeek int
}

// DefaultConfig returns a small office-sized deployment.
func DefaultConfig() Config {
	return Config{
		Weeks:            8,
		InitialMailStore: 2000,
		MessagesPerWeek:  1000,
		SpamPrevalence:   0.5,
		TestSize:         400,
		AttackStartWeek:  3,
		AttackFraction:   0.02,
		RONI:             core.DefaultRONIConfig(),
	}
}

// BackendName returns the configured backend, defaulting to sbayes.
func (c Config) BackendName() string {
	if c.Backend == "" {
		return "sbayes"
	}
	return c.Backend
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if _, err := engine.Lookup(c.BackendName()); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	switch {
	case c.Weeks < 1:
		return fmt.Errorf("scenario: Weeks %d", c.Weeks)
	case c.InitialMailStore < 10:
		return fmt.Errorf("scenario: InitialMailStore %d", c.InitialMailStore)
	case c.MessagesPerWeek < 1:
		return fmt.Errorf("scenario: MessagesPerWeek %d", c.MessagesPerWeek)
	case c.SpamPrevalence <= 0 || c.SpamPrevalence >= 1:
		return fmt.Errorf("scenario: SpamPrevalence %v", c.SpamPrevalence)
	case c.TestSize < 2:
		return fmt.Errorf("scenario: TestSize %d", c.TestSize)
	case c.Attack != nil && (c.AttackFraction <= 0 || c.AttackFraction >= 1):
		return fmt.Errorf("scenario: AttackFraction %v", c.AttackFraction)
	case c.Attack != nil && c.AttackStartWeek < 1:
		return fmt.Errorf("scenario: AttackStartWeek %d", c.AttackStartWeek)
	case c.AttackChunks < 0:
		return fmt.Errorf("scenario: AttackChunks %d", c.AttackChunks)
	case c.AttackAdaptive && c.Attack == nil:
		return fmt.Errorf("scenario: AttackAdaptive without an Attack")
	case c.AttackLabelHam && c.Attack == nil:
		return fmt.Errorf("scenario: AttackLabelHam without an Attack")
	case c.Admission != nil && c.UseRONI:
		return fmt.Errorf("scenario: Admission and UseRONI are mutually exclusive")
	case c.RetrainLag < 0:
		return fmt.Errorf("scenario: RetrainLag %d", c.RetrainLag)
	case c.Retraining != RetrainPeriodic && c.Retraining != RetrainIncremental:
		return fmt.Errorf("scenario: Retraining %v", c.Retraining)
	case c.Shards < 0:
		return fmt.Errorf("scenario: Shards %d", c.Shards)
	case c.Recipients < 0:
		return fmt.Errorf("scenario: Recipients %d", c.Recipients)
	case c.Recipients > 0 && c.Shards < 2:
		return fmt.Errorf("scenario: Recipients %d without Shards > 1", c.Recipients)
	case c.AttackRecipient != "" && c.Shards < 2:
		return fmt.Errorf("scenario: AttackRecipient %q without Shards > 1", c.AttackRecipient)
	case c.CheckpointEvery < 0:
		return fmt.Errorf("scenario: CheckpointEvery %d", c.CheckpointEvery)
	case c.CheckpointEvery > 0 && c.Checkpoints == nil:
		return fmt.Errorf("scenario: CheckpointEvery %d without a Checkpoints store", c.CheckpointEvery)
	case c.CrashAtWeek < 0:
		return fmt.Errorf("scenario: CrashAtWeek %d", c.CrashAtWeek)
	case c.CrashAtWeek > 0 && c.Checkpoints == nil:
		return fmt.Errorf("scenario: CrashAtWeek %d without a Checkpoints store", c.CrashAtWeek)
	case c.CrashAtWeek > c.Weeks:
		return fmt.Errorf("scenario: CrashAtWeek %d beyond Weeks %d", c.CrashAtWeek, c.Weeks)
	}
	if c.Attack != nil && c.AttackChunks > 1 {
		if _, err := chunkedAttacker(c.Attack); err != nil {
			return err
		}
	}
	if c.AttackAdaptive {
		if _, err := feedbackAttacker(c.Attack); err != nil {
			return err
		}
	}
	if c.Admission != nil {
		if err := c.Admission.Validate(); err != nil {
			return err
		}
	}
	if c.UseRONI {
		return c.RONI.Validate()
	}
	return nil
}

// WeekReport is one retraining period's outcome under Run.
type WeekReport struct {
	Week            int
	MailStoreSize   int
	AttackArrived   int
	AttackRejected  int
	OrganicRejected int
	Confusion       eval.Confusion
}

// Result is the full simulation trace of Run.
type Result struct {
	Cfg   Config
	Weeks []WeekReport
}

// injectAttack adds the week's attack traffic to the weekly stream
// and shuffles it in. fraction is the week's dose (the configured
// AttackFraction, or the adaptive attacker's scaled dose). It returns
// the distinct payloads in build order (so callers can stamp them
// deterministically) and the injected messages as an identity set —
// the same *mail.Message is added many times for a replicated attack,
// and a chunked attack injects several distinct messages — so that
// rejection attribution can match by pointer rather than by body text
// (which would misattribute organic mail whose body collides with the
// attack payload).
func injectAttack(cfg Config, week int, fraction float64, weekly *corpus.Corpus, wr *stats.RNG) ([]*mail.Message, map[*mail.Message]bool, int, error) {
	if cfg.Attack == nil || week < cfg.AttackStartWeek {
		return nil, nil, 0, nil
	}
	n := core.AttackSize(fraction, cfg.MessagesPerWeek)
	if n == 0 {
		return nil, nil, 0, nil
	}
	var payloads []*mail.Message
	if cfg.AttackChunks > 1 {
		chunked, err := chunkedAttacker(cfg.Attack)
		if err != nil {
			return nil, nil, 0, err
		}
		payloads = chunked.BuildChunked(cfg.AttackChunks)
	} else {
		payloads = []*mail.Message{cfg.Attack.BuildAttack(wr)}
	}
	injected := make(map[*mail.Message]bool, len(payloads))
	for _, m := range payloads {
		injected[m] = true
	}
	// The attacker's contribution is labeled spam when trained (the
	// contamination assumption) — unless the pseudospam variant lifts
	// the restriction and trains it as ham.
	for i := 0; i < n; i++ {
		weekly.Add(payloads[i%len(payloads)], !cfg.AttackLabelHam)
	}
	weekly.Shuffle(wr)
	return payloads, injected, n, nil
}

// chunkedAttacker returns the attack's chunking capability, or an
// error naming the attack (shared by Validate and injectAttack so the
// two checks cannot drift).
func chunkedAttacker(a core.Attacker) (core.ChunkedAttacker, error) {
	c, ok := a.(core.ChunkedAttacker)
	if !ok {
		return nil, fmt.Errorf("scenario: attack %q cannot be chunked", a.Name())
	}
	return c, nil
}

// rejecter is the slice of core.RONI the scrubbing step needs
// (narrowed so tests can substitute a deterministic stub).
type rejecter interface {
	ShouldReject(q *mail.Message, qSpam bool) bool
}

// scrubWeek runs the RONI defense over the weekly candidates,
// memoizing verdicts by message identity — the attacker sends the
// same message many times, and measuring one copy is measuring all —
// and attributing rejections against the injected attack set by the
// same identity key, so an organic message whose body happens to
// match an attack payload is still counted organic and every chunk of
// a multi-message attack is counted attack.
func scrubWeek(d rejecter, weekly *corpus.Corpus, attackSet map[*mail.Message]bool) (kept *corpus.Corpus, attackRejected, organicRejected int) {
	kept = &corpus.Corpus{}
	type verdictKey struct {
		msg  *mail.Message
		spam bool
	}
	cache := map[verdictKey]bool{}
	for _, e := range weekly.Examples {
		key := verdictKey{msg: e.Msg, spam: e.Spam}
		reject, seen := cache[key]
		if !seen {
			reject = d.ShouldReject(e.Msg, e.Spam)
			cache[key] = reject
		}
		switch {
		case !reject:
			kept.Add(e.Msg, e.Spam)
		case attackSet[e.Msg]:
			attackRejected++
		default:
			organicRejected++
		}
	}
	return kept, attackRejected, organicRejected
}

// Run simulates the deployment, measuring each week after the fact:
// retrain on the accumulated store, then score a fresh test corpus.
// All randomness comes from r. The learner is whichever backend cfg
// names — the attack stream, the RONI defense, and the weekly
// evaluation all operate through the backend-generic interface.
func Run(g *textgen.Generator, cfg Config, r *stats.RNG) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The per-arrival defenses only exist in the online simulator;
	// silently running an "admission-defended" batch simulation
	// undefended would be worse than refusing.
	if cfg.Admission != nil {
		return nil, fmt.Errorf("scenario: Admission is online-only; use RunOnline")
	}
	if cfg.AttackAdaptive {
		return nil, fmt.Errorf("scenario: AttackAdaptive is online-only; use RunOnline")
	}
	backend, err := engine.Lookup(cfg.BackendName())
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}

	nSpam := int(float64(cfg.InitialMailStore)*cfg.SpamPrevalence + 0.5)
	store := g.Corpus(r.Split("bootstrap"), cfg.InitialMailStore-nSpam, nSpam)
	res := &Result{Cfg: cfg}

	for week := 1; week <= cfg.Weeks; week++ {
		wr := r.Split(fmt.Sprintf("week-%d", week))
		report := WeekReport{Week: week}

		// This week's organic mail, plus the attacker's contribution.
		wSpam := int(float64(cfg.MessagesPerWeek)*cfg.SpamPrevalence + 0.5)
		weekly := g.Corpus(wr, cfg.MessagesPerWeek-wSpam, wSpam)
		_, attackSet, arrived, err := injectAttack(cfg, week, cfg.AttackFraction, weekly, wr)
		if err != nil {
			return nil, err
		}
		report.AttackArrived = arrived

		// Optional RONI scrubbing against the trusted store.
		if cfg.UseRONI {
			defense, err := core.NewRONIBackend(cfg.RONI, store, backend.New, wr)
			if err != nil {
				return nil, fmt.Errorf("scenario week %d: %w", week, err)
			}
			weekly, report.AttackRejected, report.OrganicRejected = scrubWeek(defense, weekly, attackSet)
		}

		store.Append(weekly)
		report.MailStoreSize = store.Len()

		// Weekly retraining and evaluation on fresh mail, scored in
		// parallel across GOMAXPROCS.
		clf := eval.TrainBackend(backend.New, store)
		tSpam := int(float64(cfg.TestSize)*cfg.SpamPrevalence + 0.5)
		test := g.Corpus(wr.Split("test"), cfg.TestSize-tSpam, tSpam)
		report.Confusion = eval.EvaluateBatch(clf, test, 0)
		res.Weeks = append(res.Weeks, report)
	}
	return res, nil
}

// OnlineWeekReport is one week's outcome under RunOnline.
type OnlineWeekReport struct {
	Week          int
	MailStoreSize int
	// Generation is the engine's serving snapshot generation at the
	// end of the week (retrains publish mid-week when RetrainLag > 0).
	Generation      uint64
	AttackArrived   int
	AttackRejected  int
	OrganicRejected int
	// AttackDose is the attack fraction used this week — the
	// configured fraction, or the adaptive attacker's scaled dose
	// (zero in weeks with no attack traffic).
	AttackDose float64
	// Admission, when Config.Admission is set, is the week's inline
	// vetting outcome: per-decision counts split organic vs. attack,
	// probe accounting against the batch-pass equivalent, quarantine
	// review results, and the refit thresholds. Nil otherwise (the
	// batch fields above then carry any RONI scrubbing results; in
	// admission mode AttackRejected/OrganicRejected mirror the
	// admission rejections so the main trace stays comparable).
	Admission *AdmissionWeek
	// Delivered tallies the verdict every arriving message actually
	// received at delivery time — organic mail under its true label,
	// attack mail as true spam. This is the user-visible confusion the
	// after-the-fact test-set evaluation of Run cannot see.
	Delivered eval.Confusion
	// ByShard, in sharded mode (Config.Shards > 1), splits Delivered
	// by serving shard: ByShard[i] is the at-delivery confusion of the
	// mailboxes routed to shard i, which is what separates the
	// targeted shard's damage from collateral damage elsewhere. Nil in
	// single-engine mode.
	ByShard []eval.Confusion
	// Checkpointed counts the snapshot saves performed this week
	// (Config.Checkpoints; in sharded mode one record of every shard
	// is one checkpoint).
	Checkpointed int
	// Resumed is true when the simulated crash hit this week's end
	// (Config.CrashAtWeek): the engine was discarded and restored
	// from the checkpoint store, and Generation reports the resumed
	// generation the next week starts from.
	Resumed bool
}

// OnlineResult is the full simulation trace of RunOnline.
type OnlineResult struct {
	Cfg   Config
	Weeks []OnlineWeekReport
}

// Snapshot-store keys of the online deployment's checkpoint records
// (Config.Checkpoints): the single engine persists under
// OnlineCheckpointName, sharded mode under ShardedCheckpointName, one
// record of every shard per checkpoint.
const (
	OnlineCheckpointName  = "scenario-online"
	ShardedCheckpointName = "scenario-sharded"
)

// checkpointer spaces snapshot saves CheckpointEvery publishes apart
// — the durability-versus-write-amplification knob both RunOnline
// paths share. A nil checkpointer (no store configured) counts
// nothing and never saves.
type checkpointer struct {
	every int
	since int
	save  func() error
}

func newCheckpointer(cfg Config, save func() error) *checkpointer {
	if cfg.Checkpoints == nil {
		return nil
	}
	every := cfg.CheckpointEvery
	if every < 1 {
		every = 1
	}
	return &checkpointer{every: every, save: save}
}

// saveNow checkpoints immediately, outside the cadence — the
// bootstrap save both RunOnline paths perform up front so a crash
// before the first publish still has a restart point.
func (c *checkpointer) saveNow() error {
	if c == nil {
		return nil
	}
	return c.save()
}

// published records one snapshot publish, saving when the cadence is
// due; it reports whether a checkpoint was written.
func (c *checkpointer) published() (bool, error) {
	if c == nil {
		return false, nil
	}
	c.since++
	if c.since < c.every {
		return false, nil
	}
	c.since = 0
	if err := c.save(); err != nil {
		return false, err
	}
	return true, nil
}

// RunOnline simulates the deployment one message at a time through a
// serving fleet: every message is classified as it arrives and the
// verdict the user saw is recorded; at each week's end the candidates
// are (optionally) RONI-scrubbed into the store and a replacement
// snapshot is built in the background — concurrently with the next
// week's deliveries — and published by atomic swap once cfg.RetrainLag
// messages of that week have gone out. The trace is deterministic:
// the swap point is fixed in simulated time, so verdicts do not
// depend on wall-clock scheduling.
//
// The fleet is one engine, or with cfg.Shards > 1 a hash-by-recipient
// engine of that many shards (see sharded.go): every shard serves —
// and is rebuilt from — only its own slice of the kept mail, the
// shards publish together as one generation, and reports carry
// per-shard confusions. The defenses vet mail at the
// gateway, upstream of the shards: RONI scrubs against the
// organization-wide trusted store, and inline admission counts each
// decision against the shard the example routes to.
//
// With cfg.Checkpoints set the deployment is durable: publishes are
// persisted through the engine persistence layer on the
// CheckpointEvery cadence, and cfg.CrashAtWeek simulates the restart
// — the fleet is discarded at that week's end and resumed from the
// newest record whose every shard loads, so the remaining weeks
// measure what users experience after a recovery (including any
// generations the checkpoint cadence lost).
func RunOnline(g *textgen.Generator, cfg Config, r *stats.RNG) (*OnlineResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	backend, err := engine.Lookup(cfg.BackendName())
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	sharded := cfg.Shards > 1
	nsh, name := 1, OnlineCheckpointName
	var pop []string
	if sharded {
		nsh, name = cfg.Shards, ShardedCheckpointName
		pop = make([]string, cfg.NumRecipients())
		for i := range pop {
			pop[i] = RecipientAddress(i)
		}
	}

	// Bootstrap: one clean store — stamped with recipients when
	// sharded — partitioned into per-shard training corpora.
	br := r.Split("bootstrap")
	nSpam := int(float64(cfg.InitialMailStore)*cfg.SpamPrevalence + 0.5)
	store := g.Corpus(br, cfg.InitialMailStore-nSpam, nSpam)
	if sharded {
		stampRecipients(store, pop, br)
	}
	stores := engine.PartitionByKey(store, nsh, nil)
	clfs := make([]engine.Classifier, nsh)
	eval.Parallel(nsh, nsh, func(i int) {
		clfs[i] = eval.TrainBackend(backend.New, stores[i])
	})
	sh := engine.NewSharded(clfs, engine.Config{Name: name})
	res := &OnlineResult{Cfg: cfg}

	// Inline admission control: the fleet gains a guard whose chain
	// vets every candidate at arrival and whose publish hooks run the
	// swap-time defenses. The guard wraps whatever fleet currently
	// serves, so a post-crash resume rebuilds it below.
	var adm *onlineAdmission
	var guard *engine.Guarded
	if cfg.Admission != nil {
		adm, err = newOnlineAdmission(*cfg.Admission, backend, store, cfg.SpamPrevalence, r.Split("admission"))
		if err != nil {
			return nil, err
		}
		guard = engine.NewGuarded(sh, adm.chain, adm.guardCfg)
	}
	ctx := context.Background()

	// Durable mode: persist the bootstrap fleet up front, then
	// checkpoint publishes on the configured cadence, one record of
	// every shard at the fleet's generation. The save closure reads sh
	// through the variable, so post-crash checkpoints persist the
	// resumed fleet.
	ckpt := newCheckpointer(cfg, func() error {
		_, err := engine.SaveEngine(cfg.Checkpoints, name, sh)
		return err
	})
	if err := ckpt.saveNow(); err != nil {
		return nil, fmt.Errorf("scenario: bootstrap checkpoint: %w", err)
	}

	// pending carries the background rebuild of every shard across the
	// week boundary: the builder goroutine trains the replacements while
	// the next week's early mail is delivered against the old snapshots.
	var pending chan []engine.Classifier
	for week := 1; week <= cfg.Weeks; week++ {
		wr := r.Split(fmt.Sprintf("week-%d", week))
		report := OnlineWeekReport{Week: week}
		if sharded {
			report.ByShard = make([]eval.Confusion, nsh)
		}

		wSpam := int(float64(cfg.MessagesPerWeek)*cfg.SpamPrevalence + 0.5)
		weekly := g.Corpus(wr, cfg.MessagesPerWeek-wSpam, wSpam)
		if sharded {
			stampRecipients(weekly, pop, wr)
		}
		dose := attackDose(cfg)
		payloads, attackSet, arrived, err := injectAttack(cfg, week, dose, weekly, wr)
		if err != nil {
			return nil, err
		}
		report.AttackArrived = arrived
		if arrived > 0 {
			report.AttackDose = dose
		}
		if sharded {
			addressAttack(cfg, payloads, attackSet, weekly, pop, wr)
		}

		// publish swaps the background-built fleet in and checkpoints it
		// when the cadence is due (a fleet-wide swap counts as one
		// publish). With a guard the swap also runs the swap-time
		// defenses: the pre-publish threshold refit mutates every
		// replacement before it serves, and the post-publish hook
		// refreshes the calibration pool and reviews the quarantine,
		// once.
		publish := func() error {
			next := <-pending
			pending = nil
			if guard != nil {
				if _, err := guard.Swap(next...); err != nil {
					return fmt.Errorf("scenario week %d: %w", week, err)
				}
			} else {
				sh.Swap(next...)
			}
			saved, err := ckpt.published()
			if err != nil {
				return fmt.Errorf("scenario week %d: checkpoint: %w", week, err)
			}
			if saved {
				report.Checkpointed++
			}
			return nil
		}

		// Inline vetting accumulates the admitted candidates as they
		// arrive; without admission everything trains (modulo the
		// optional week-end batch scrub below).
		kept := weekly
		var admStartProbes uint64
		if adm != nil {
			report.Admission = &AdmissionWeek{}
			admStartProbes = adm.roni.Stats().Probes
			kept = &corpus.Corpus{}
		}

		// Deliver one message at a time. Last week's retrain goes live
		// RetrainLag messages in; until then users get the previous
		// generation's verdicts.
		for i, ex := range weekly.Examples {
			if pending != nil && i == cfg.RetrainLag {
				if err := publish(); err != nil {
					return nil, err
				}
			}
			verdict := sh.Classify(ex.Msg)
			// Attack mail is observed as true spam even when the
			// pseudospam variant trains it under a ham label.
			spam := ex.Spam || attackSet[ex.Msg]
			report.Delivered.Observe(spam, verdict.Label)
			if sharded {
				report.ByShard[sh.ShardFor(ex.Msg)].Observe(spam, verdict.Label)
			}
			if adm != nil {
				d := guard.Vet(ctx, ex.Msg, ex.Spam)
				adm.countWeek(report.Admission, d, attackSet[ex.Msg])
				if d.Verdict == engine.AdmitAccept {
					kept.Add(ex.Msg, ex.Spam)
				}
			}
		}
		if pending != nil {
			// The lag reached past the week's volume: publish at the
			// boundary instead.
			if err := publish(); err != nil {
				return nil, err
			}
		}

		// Week's end: scrub at the gateway (batch mode) or settle the
		// inline accounting, then grow the global store (the defenses'
		// trusted pool) and each shard's own slice.
		if cfg.UseRONI {
			defense, err := core.NewRONIBackend(cfg.RONI, store, backend.New, wr)
			if err != nil {
				return nil, fmt.Errorf("scenario week %d: %w", week, err)
			}
			kept, report.AttackRejected, report.OrganicRejected = scrubWeek(defense, weekly, attackSet)
		}
		if adm != nil {
			aw := report.Admission
			aw.Probes = int(adm.roni.Stats().Probes - admStartProbes)
			aw.BatchProbeEquivalent = distinctCandidates(weekly)
			kept.Append(adm.drainWeek(aw))
			// Mirror the rejections into the batch columns so the main
			// trace reads the same in both modes.
			report.AttackRejected = aw.AttackRejected
			report.OrganicRejected = aw.OrganicRejected
			observeAttackFeedback(cfg, arrived, aw.AttackRejected+aw.AttackQuarantined)
		} else {
			observeAttackFeedback(cfg, arrived, report.AttackRejected)
		}
		store.Append(kept)
		parts := sh.Partition(kept)
		for i := range stores {
			stores[i].Append(parts[i])
		}
		report.MailStoreSize = store.Len()

		// Simulated crash: the process dies at this week's end, taking
		// the in-memory fleet with it (the mail stores are the org's disk
		// and survive). The restart resumes the newest record whose every
		// shard loads — if the cadence skipped recent
		// publishes, the resumed filter is older than the one that just
		// served, and the trace shows it.
		if week == cfg.CrashAtWeek {
			sh, _, err = engine.ResumeEngine(cfg.Checkpoints, name, nsh, engine.Config{Name: name})
			if err != nil {
				return nil, fmt.Errorf("scenario week %d: resume after simulated crash: %w", week, err)
			}
			if guard != nil {
				// Re-guard the restored fleet; the admission pipeline
				// (chain, quarantine, budget) is org state and survives
				// the process crash with the mail store.
				guard = engine.NewGuarded(sh, adm.chain, adm.guardCfg)
			}
			report.Resumed = true
		}
		report.Generation = sh.Generation()

		// Kick off the background rebuild of every shard from its own
		// store (or its own delta); it publishes next week, so after the
		// final week there is nothing to build. The builder works on
		// clones, so the main loop's store growth never races it.
		if week == cfg.Weeks {
			res.Weeks = append(res.Weeks, report)
			break
		}
		build := make(chan []engine.Classifier, 1)
		switch cfg.Retraining {
		case RetrainIncremental:
			curs, _ := sh.Snapshots()
			deltas := make([]*corpus.Corpus, nsh)
			for i := range deltas {
				deltas[i] = parts[i].Clone()
			}
			go func() {
				next := make([]engine.Classifier, nsh)
				eval.Parallel(nsh, nsh, func(i int) {
					next[i] = curs[i].CloneClassifier()
					eval.Train(next[i], deltas[i])
				})
				build <- next
			}()
		default:
			fulls := make([]*corpus.Corpus, nsh)
			for i := range fulls {
				fulls[i] = stores[i].Clone()
			}
			go func() {
				next := make([]engine.Classifier, nsh)
				eval.Parallel(nsh, nsh, func(i int) {
					next[i] = eval.TrainBackend(backend.New, fulls[i])
				})
				build <- next
			}()
		}
		pending = build
		res.Weeks = append(res.Weeks, report)
	}
	return res, nil
}

// FinalHamLoss returns the last week's ham misclassification rate.
func (r *Result) FinalHamLoss() float64 {
	if len(r.Weeks) == 0 {
		return 0
	}
	return r.Weeks[len(r.Weeks)-1].Confusion.HamMisclassifiedRate()
}

// FinalHamLoss returns the last week's at-delivery ham
// misclassification rate.
func (r *OnlineResult) FinalHamLoss() float64 {
	if len(r.Weeks) == 0 {
		return 0
	}
	return r.Weeks[len(r.Weeks)-1].Delivered.HamMisclassifiedRate()
}

// describeAttack renders the attack clause of a trace header.
func describeAttack(cfg Config) string {
	if cfg.Attack == nil {
		return "no attack"
	}
	label := fmt.Sprintf("%s attack from week %d at %.1f%%/week",
		cfg.Attack.Name(), cfg.AttackStartWeek, 100*cfg.AttackFraction)
	if cfg.AttackAdaptive {
		label += " (dose adapts to feedback)"
	}
	if cfg.AttackLabelHam {
		label += " under ham labels"
	}
	if cfg.AttackChunks > 1 {
		label += fmt.Sprintf(" in %d chunks", cfg.AttackChunks)
	}
	if cfg.AttackRecipient != "" {
		label += " aimed at " + cfg.AttackRecipient
	}
	return label
}

// describeDefense renders the defense clause of a trace header.
func describeDefense(cfg Config) string {
	switch {
	case cfg.Admission != nil:
		return "inline admission control"
	case cfg.UseRONI:
		return "RONI scrubbing"
	default:
		return "no defense"
	}
}

// Render prints the weekly trace.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Deployment simulation (§2.1): %s backend, weekly retraining, %s, %s.\n",
		r.Cfg.BackendName(), describeAttack(r.Cfg), describeDefense(r.Cfg))
	t := eval.NewTable("week", "store", "atk in", "atk rej", "org rej", "ham lost", "spam caught")
	for _, w := range r.Weeks {
		t.AddRow(
			fmt.Sprintf("%d", w.Week),
			fmt.Sprintf("%d", w.MailStoreSize),
			fmt.Sprintf("%d", w.AttackArrived),
			fmt.Sprintf("%d", w.AttackRejected),
			fmt.Sprintf("%d", w.OrganicRejected),
			fmt.Sprintf("%.1f%%", 100*w.Confusion.HamMisclassifiedRate()),
			fmt.Sprintf("%.1f%%", 100*(1-w.Confusion.SpamMisclassifiedRate())))
	}
	b.WriteString(t.String())
	return b.String()
}

// Render prints the weekly at-delivery trace; in sharded mode it
// appends the per-shard ham-loss matrix separating target damage from
// collateral.
func (r *OnlineResult) Render() string {
	var b strings.Builder
	serving := "single engine"
	if r.Cfg.Shards > 1 {
		serving = fmt.Sprintf("%d recipient-hashed shards over %d users", r.Cfg.Shards, r.Cfg.NumRecipients())
	}
	fmt.Fprintf(&b, "Online deployment (§2.1, at-delivery verdicts): %s backend, %s, %s retraining (lag %d), %s, %s.\n",
		r.Cfg.BackendName(), serving, r.Cfg.Retraining, r.Cfg.RetrainLag,
		describeAttack(r.Cfg), describeDefense(r.Cfg))
	t := eval.NewTable("week", "store", "gen", "atk in", "atk rej", "org rej", "ham lost", "spam caught")
	crashed := false
	for _, w := range r.Weeks {
		gen := fmt.Sprintf("%d", w.Generation)
		if w.Resumed {
			gen += "*"
			crashed = true
		}
		t.AddRow(
			fmt.Sprintf("%d", w.Week),
			fmt.Sprintf("%d", w.MailStoreSize),
			gen,
			fmt.Sprintf("%d", w.AttackArrived),
			fmt.Sprintf("%d", w.AttackRejected),
			fmt.Sprintf("%d", w.OrganicRejected),
			fmt.Sprintf("%.1f%%", 100*w.Delivered.HamMisclassifiedRate()),
			fmt.Sprintf("%.1f%%", 100*(1-w.Delivered.SpamMisclassifiedRate())))
	}
	b.WriteString(t.String())
	if crashed {
		b.WriteString("(* = generation resumed from the checkpoint store after the simulated crash)\n")
	}
	if len(r.Weeks) > 0 && r.Weeks[0].Admission != nil {
		b.WriteByte('\n')
		renderAdmissionTable(&b, r)
	}
	if len(r.Weeks) > 0 && r.Weeks[0].ByShard != nil {
		b.WriteByte('\n')
		renderShardTable(&b, r)
	}
	return b.String()
}
