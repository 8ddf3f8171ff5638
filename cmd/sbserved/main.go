// Command sbserved runs the guarded serving daemon: an HTTP front-end
// over one guarded fleet — a single engine, or N engines sharded by
// recipient — that classifies on demand and learns only through
// admission control.
//
// The daemon wires the paper's §5 defenses into a network deployment:
// a token-flood gate and incremental RONI vet every learn submission,
// quarantined candidates are held for swap-time review, and snapshot
// save/resume carries the admission state with the classifier — a
// restart cannot amnesty held mail or refill a spent probe budget.
// The learn path is asynchronous and bounded: when it saturates (or
// an admitter wedges), submissions shed with 503 + Retry-After while
// classification continues unharmed.
//
// Usage:
//
//	sbserved -addr :8525 -backend sbayes
//	sbserved -backend graham -shards 4 -snapshot-dir /var/lib/sbserved
//
// -shards 0 or 1 serves one engine; -shards N > 1 partitions the
// filter across N recipient-hashed shards. Both are built, saved and
// resumed through one path: a single engine is a one-shard fleet.
//
// With -snapshot-dir, the daemon resumes the newest persisted
// generation at startup, exposes POST /admin/save and /admin/resume,
// and saves on graceful shutdown. Every save writes one record under
// -name at the one serving generation, holding every shard's snapshot
// and the admission state, so held mail and the spent probe budget
// survive a restart or an in-place resume at any shard count, and a
// save killed midway leaves the previous record whole. After every
// save the directory is pruned to the two newest records (never
// dropping the one a resume restarts from). Start-up
// bootstraps fresh only when nothing at all is stored under -name; a
// record of another shard count than -shards or of another backend
// than -backend, a store with no loadable record, or a fleet store in
// the retired per-shard layout (-name.shard<i> lines) fails start-up
// instead of serving or bootstrapping over (and later overwriting) the
// admission state it holds.
//
// Endpoints: POST /classify, /score (single JSON), /classify/batch,
// /score/batch (NDJSON streams), /learn (202 or 503 shed),
// /admin/flush, /admin/save, /admin/resume; GET /stats, /healthz
// (readiness: 503 while the learn queue saturates), /metrics
// (Prometheus text over one registry shared by engine, admission, and
// serve), /trace (sampled decision lifecycles as NDJSON), and — with
// -pprof — /debug/pprof/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/mail"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/textgen"
	"repro/internal/tokenize"

	_ "repro/internal/graham"
	_ "repro/internal/sbayes"
)

func main() {
	var (
		addr     = flag.String("addr", ":8525", "listen address")
		backend  = flag.String("backend", "sbayes", fmt.Sprintf("classifier backend %v", engine.Backends()))
		shards   = flag.Int("shards", 0, "shard the fleet N ways (0 or 1 = single engine)")
		name     = flag.String("name", "served", "snapshot record name")
		snapDir  = flag.String("snapshot-dir", "", "snapshot store directory (empty disables persistence)")
		seed     = flag.Uint64("seed", 1, "deterministic seed for bootstrap and admission")
		bootHam  = flag.Int("bootstrap-ham", 300, "bootstrap corpus ham count (fresh start only)")
		bootSpam = flag.Int("bootstrap-spam", 300, "bootstrap corpus spam count (fresh start only)")
		poolSize = flag.Int("pool", 200, "RONI calibration pool size")

		maxDistinct = flag.Int("max-distinct", 2000, "flood gate: reject candidates with more distinct tokens")
		roniBudget  = flag.Float64("roni-budget", 0.05, "RONI probe budget earned per admitted message")
		roniBurst   = flag.Float64("roni-burst", 4, "RONI probe budget burst capacity")
		swapGrant   = flag.Float64("swap-grant", 4, "probe budget granted at each publish (quarantine review)")
		quarCap     = flag.Int("quarantine-cap", 256, "quarantine capacity")

		learnQueue  = flag.Int("learn-queue", 256, "bounded learn queue depth (full queue sheds 503)")
		learnBatch  = flag.Int("learn-batch", 64, "max examples per incremental retrain")
		maxInflight = flag.Int("max-inflight", 0, "max concurrent batch-scoring requests (0 = 2x GOMAXPROCS)")
		retryAfter  = flag.Duration("retry-after", time.Second, "Retry-After advertised on shed learn submissions")

		metrics    = flag.Bool("metrics", true, "expose GET /metrics (Prometheus text) over one registry shared by engine, admission, and serve")
		traceEvery = flag.Int("trace-every", 16, "decision-trace sampling: record lifecycles whose digest %% N == 0 (0 disables GET /trace)")
		traceBuf   = flag.Int("trace-buf", 1024, "decision-trace ring capacity")
		pprofOn    = flag.Bool("pprof", false, "mount GET /debug/pprof/ (opt-in: profiles leak on an exposed port)")
	)
	flag.Parse()

	if err := run(config{
		addr: *addr, backend: *backend, shards: *shards, name: *name,
		snapDir: *snapDir, seed: *seed, bootHam: *bootHam, bootSpam: *bootSpam,
		poolSize: *poolSize, maxDistinct: *maxDistinct, roniBudget: *roniBudget,
		roniBurst: *roniBurst, swapGrant: *swapGrant, quarCap: *quarCap,
		learnQueue: *learnQueue, learnBatch: *learnBatch,
		maxInflight: *maxInflight, retryAfter: *retryAfter,
		metrics: *metrics, traceEvery: *traceEvery, traceBuf: *traceBuf, pprofOn: *pprofOn,
	}); err != nil {
		log.Fatal(err)
	}
}

type config struct {
	addr, backend, name, snapDir     string
	shards                           int
	seed                             uint64
	bootHam, bootSpam, poolSize      int
	maxDistinct                      int
	roniBudget, roniBurst, swapGrant float64
	quarCap, learnQueue, learnBatch  int
	maxInflight                      int
	retryAfter                       time.Duration
	metrics                          bool
	traceEvery, traceBuf             int
	pprofOn                          bool
}

// newGenerator builds the synthetic mail universe the daemon
// bootstraps and calibrates from — the same population shape the
// scenario simulator and the repo benchmark use.
func newGenerator() *textgen.Generator {
	u := textgen.MustUniverse(textgen.SmallUniverseConfig())
	return textgen.MustNew(u, textgen.DefaultConfig())
}

func run(cfg config) error {
	b, err := engine.Lookup(cfg.backend)
	if err != nil {
		return err
	}
	gen := newGenerator()
	rng := stats.NewRNG(cfg.seed)

	// One registry and one tracer for the whole daemon: engine,
	// admission, and serve all instrument into them, so one scrape of
	// GET /metrics sees the full pipeline and one GET /trace replays a
	// message's lifecycle across every layer it crossed.
	var reg *obs.Registry
	var tracer *obs.Tracer
	if cfg.metrics {
		reg = obs.NewRegistry()
	}
	if cfg.traceEvery > 0 {
		tracer = obs.NewTracer(cfg.traceBuf, cfg.traceEvery)
	}

	// Admission wiring: structural flood gate first (cheap), then the
	// budgeted RONI probe. Quarantined candidates wait for the
	// post-publish review.
	calib := gen.Corpus(rng.Split("calib"), cfg.poolSize/2, cfg.poolSize-cfg.poolSize/2)
	roni, err := admission.NewIncrementalRONI(
		admission.IncrementalRONIConfig{BudgetPerMessage: cfg.roniBudget, Burst: cfg.roniBurst},
		calib, b.New, rng.Split("roni"))
	if err != nil {
		return err
	}
	gate := admission.NewTokenFloodGate(admission.FloodGateConfig{MaxDistinct: cfg.maxDistinct})
	chain := admission.NewChain(gate, roni)
	quarantine := admission.NewQuarantine(admission.QuarantineConfig{Capacity: cfg.quarCap, Trace: tracer})
	if reg != nil {
		roni.Register(reg)
		quarantine.Register(reg)
	}

	gcfg := engine.GuardedConfig{Quarantine: quarantine}
	gcfg.PostPublish = append(gcfg.PostPublish, func() {
		// Each publish grants review budget and re-vets the held mail
		// under it. Released candidates are reported, not auto-trained:
		// re-entering the training path from a publish hook would
		// publish recursively (hookorder forbids it for that reason),
		// so a deployment feeds releases back through POST /learn.
		roni.Grant(cfg.swapGrant)
		released, dropped := quarantine.Review(func(m *mail.Message, ts *tokenize.TokenStream, spam bool) admission.Decision {
			return chain.Admit(context.Background(), m, ts, spam)
		})
		if len(released) > 0 || dropped > 0 {
			log.Printf("quarantine review: %d released, %d dropped", len(released), dropped)
		}
	})

	var store engine.SnapshotStore
	if cfg.snapDir != "" {
		ds, err := engine.NewDirStore(cfg.snapDir)
		if err != nil {
			return err
		}
		store = ds
	}

	scfg := serve.Config{
		LearnQueue:  cfg.learnQueue,
		LearnBatch:  cfg.learnBatch,
		MaxInflight: cfg.maxInflight,
		RetryAfter:  cfg.retryAfter,
		Store:       store,
		Name:        cfg.name,
		Obs:         reg,
		Trace:       tracer,
		EnablePprof: cfg.pprofOn,
	}

	shards := max(1, cfg.shards)
	guarded, resumed, err := build(cfg, shards, b, gen, rng, chain, gcfg, store,
		engine.Config{Name: cfg.name, Obs: reg, Trace: tracer})
	if err != nil {
		return err
	}
	log.Printf("serving %d shard(s) of %s at generation %d (resumed=%v) on %s",
		shards, cfg.backend, guarded.Generation(), resumed, cfg.addr)
	scfg.Resumed = resumed
	srv := serve.New(guarded, scfg)
	defer srv.Close()

	httpSrv := &http.Server{Addr: cfg.addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := srv.Close(); err != nil {
		return err
	}
	if store != nil {
		if gen, err := srv.Save(); err != nil {
			log.Printf("save on exit: %v", err)
		} else {
			log.Printf("saved generation %d", gen)
		}
	}
	return nil
}

// build resumes the guarded fleet from the store's newest loadable
// record under the name, which must hold -shards shards of -backend,
// and bootstraps fresh shards — each trained on its own partition of
// the bootstrap corpus (one shard trains on all of it) — only when
// nothing is stored under the name. Anything else is an error:
// bootstrapping over a store it cannot resume would free held mail and
// refill the spent probe budget, then bury that state under the next
// save, and serving a record of another backend would vet with trial
// filters of the wrong backend.
func build(cfg config, shards int, b engine.Backend, gen *textgen.Generator, rng *stats.RNG, chain *admission.Chain, gcfg engine.GuardedConfig, store engine.SnapshotStore, ecfg engine.Config) (*engine.Guarded, bool, error) {
	if store != nil {
		guarded, err := engine.ResumeGuarded(store, cfg.name, shards, ecfg, chain, gcfg)
		if err == nil {
			clfs, gen := guarded.Engine().Snapshots()
			if got := clfs[0].BackendName(); got != b.Name {
				return nil, false, fmt.Errorf("snapshot store under -name %q holds %s at generation %d, not -backend %s", cfg.name, got, gen, b.Name)
			}
			return guarded, true, nil
		}
		stored, gerr := store.Generations(cfg.name)
		if gerr != nil {
			return nil, false, gerr
		}
		if len(stored) > 0 || !errors.Is(err, engine.ErrNoSnapshot) {
			return nil, false, fmt.Errorf("snapshot store under -name %q does not resume with -shards %d: %w", cfg.name, shards, err)
		}
	}
	parts := engine.PartitionByKey(gen.Corpus(rng.Split("boot"), cfg.bootHam, cfg.bootSpam), shards, engine.RecipientKey)
	clfs := make([]engine.Classifier, shards)
	for i := range clfs {
		clfs[i] = b.New()
		trainBootstrap(clfs[i], parts[i])
	}
	return engine.NewGuarded(engine.NewSharded(clfs, ecfg), chain, gcfg), false, nil
}

// trainBootstrap trains the operator-trusted bootstrap corpus into a
// fresh classifier before the engine starts serving. This is the one
// pre-admission training path in the daemon: the corpus is generated
// locally from the seed, not received from the network.
func trainBootstrap(clf engine.Classifier, c *corpus.Corpus) {
	for _, ex := range c.Examples {
		clf.Learn(ex.Msg, ex.Spam) //sbvet:unguarded operator-trusted local bootstrap corpus; admission vets network submissions, not the seed
	}
}
