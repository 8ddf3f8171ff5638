package repro

// Benchmarks: one per table/figure of the paper (regenerating the
// exhibit at the structurally identical small scale), the ablations
// called out in DESIGN.md §5, and micro-benchmarks of the hot paths.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The per-exhibit benchmarks report the headline quantity of their
// figure as a custom metric so a regression in attack effectiveness
// is as visible as a regression in speed.

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/graham"
	"repro/internal/obs"
	"repro/internal/sbayes"
	"repro/internal/scenario"
	"repro/internal/tokenize"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
	benchEnvErr  error
)

// env returns the cached small-scale experiment environment.
func env(b testing.TB) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = experiments.NewEnv(experiments.SmallScale())
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

// ---- One benchmark per exhibit ----

// BenchmarkTable1Params regenerates the Table 1 parameter matrix.
func BenchmarkTable1Params(b *testing.B) {
	cfg := experiments.FullScale()
	for i := 0; i < b.N; i++ {
		if out := experiments.Table1(cfg); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig1DictionaryAttacks regenerates Figure 1 (optimal /
// Usenet / Aspell dictionary attacks under cross-validation).
func BenchmarkFig1DictionaryAttacks(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var last *experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig1(e)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	pts := last.SeriesByName("optimal").Points
	b.ReportMetric(100*pts[len(pts)-1].Confusion.HamMisclassifiedRate(), "hamloss%@max")
}

// BenchmarkFig2FocusedKnowledge regenerates Figure 2 (focused attack
// vs. guess probability).
func BenchmarkFig2FocusedKnowledge(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var last *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig2(e)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(100*last.Cells[len(last.Cells)-1].ChangedRate(), "changed%@maxp")
}

// BenchmarkFig3FocusedVolume regenerates Figure 3 (focused attack vs.
// attack volume).
func BenchmarkFig3FocusedVolume(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var last *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(e)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(100*last.Points[len(last.Points)-1].MisclassifiedRate(), "targetloss%@max")
}

// BenchmarkFig4TokenShift regenerates Figure 4 (token scores before
// and after the focused attack).
func BenchmarkFig4TokenShift(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var last *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(e)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	inc, _ := last.Targets[0].IncludedDeltaSummary()
	b.ReportMetric(inc, "incTokenDelta")
}

// BenchmarkFig5DynamicThreshold regenerates Figure 5 (dynamic
// threshold defense vs. the dictionary attack).
func BenchmarkFig5DynamicThreshold(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var last *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(e)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	cells := last.Series[len(last.Series)-1].Cells
	b.ReportMetric(100*cells[len(cells)-1].Confusion.HamAsSpamRate(), "defendedham2spam%")
}

// BenchmarkRONIDefense regenerates the §5.1 RONI statistics.
func BenchmarkRONIDefense(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var last *experiments.RONIResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunRONI(e)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(-last.BestAttack(), "minAttackImpact")
}

// BenchmarkTokenRatio regenerates the §4.2 token-volume check.
func BenchmarkTokenRatio(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var last *experiments.TokenRatioResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTokenRatio(e)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Rows[0].Ratio(), "tokenRatio")
}

// BenchmarkExtInformedAttack regenerates the informed-attack
// extension sweep (§3.4 future work).
func BenchmarkExtInformedAttack(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var last *experiments.InformedResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunInformed(e)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	cells := last.Cells
	b.ReportMetric(100*cells[len(cells)-1].Confusions[0].HamMisclassifiedRate(), "informedloss%@max")
}

// BenchmarkExtPseudospam regenerates the pseudospam extension sweep
// (§2.2 remark).
func BenchmarkExtPseudospam(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	var last *experiments.PseudospamResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPseudospam(e)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(100*last.Points[len(last.Points)-1].NotBlockedRate(), "unblocked%@max")
}

// ---- Ablations (DESIGN.md §5) ----

// BenchmarkAblationWeightedLearn compares training n identical attack
// emails via weighted learning against the naive n-iteration loop.
func BenchmarkAblationWeightedLearn(b *testing.B) {
	e := env(b)
	attack := core.NewDictionaryAttack(e.Aspell).BuildAttack(e.RNG("bench"))
	ts := e.Tok.Stream(attack)
	const copies = 100
	b.Run("weighted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := sbayes.NewDefault()
			f.LearnTokenStream(ts, true, copies)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := sbayes.NewDefault()
			for c := 0; c < copies; c++ {
				f.LearnTokenStream(ts, true, 1)
			}
		}
	})
}

// BenchmarkAblationRONIUnlearn compares the incremental RONI impact
// measurement (sub-benchmark "unlearn": the probe against the standing
// trial filters' bound validation sets) against retraining each trial
// filter from scratch.
func BenchmarkAblationRONIUnlearn(b *testing.B) {
	e := env(b)
	r := e.RNG("roni-ablation")
	cfg := core.DefaultRONIConfig()
	d, err := core.NewRONI(cfg, e.Pool, sbayes.DefaultOptions(), e.Tok, r)
	if err != nil {
		b.Fatal(err)
	}
	q := e.Gen.SpamMessage(r)
	b.Run("unlearn", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.MeasureImpact(q, true)
		}
	})
	b.Run("retrain", func(b *testing.B) {
		// Retrain-from-scratch equivalent: rebuild the trial filters
		// for every query.
		for i := 0; i < b.N; i++ {
			d2, err := core.NewRONI(cfg, e.Pool, sbayes.DefaultOptions(), e.Tok, r.Clone())
			if err != nil {
				b.Fatal(err)
			}
			d2.MeasureImpact(q, true)
		}
	})
}

// learnUnlearn is a classifier whose validation sets bind the direct
// way: a probe learns the query's stream into the filter, classifies
// every bound stream and unlearns the query. It is the reference the
// bound probe is measured against.
type learnUnlearn struct{ engine.Classifier }

func (f learnUnlearn) BindValidation(streams []*tokenize.TokenStream) engine.ValidationSet {
	return learnUnlearnSet{f.Classifier, streams}
}

type learnUnlearnSet struct {
	clf     engine.Classifier
	streams []*tokenize.TokenStream
}

func (s learnUnlearnSet) ClassifyWith(q *tokenize.TokenStream, qSpam bool, out []engine.Label) {
	if q != nil {
		s.clf.LearnTokenStream(q, qSpam, 1)
	}
	for i, ts := range s.streams {
		out[i], _ = s.clf.ClassifyTokenStream(ts)
	}
	if q != nil {
		if err := s.clf.UnlearnTokenStream(q, qSpam, 1); err != nil {
			panic(err)
		}
	}
}

// BenchmarkRONIProbe measures one RONI probe at the paper's parameters
// (5 trials, |T| = 20, |V| = 50) on a pre-tokenized query, the way
// IncrementalRONI calls it: "bound" scores each trial's bound
// validation set as if the query were learned; "learn-unlearn" trains
// the query into every trial filter, re-scores the set message by
// message and unlearns it. Both report the same impacts. The sbayes
// arms keep their names; the graham arms carry a prefix. "bind" builds
// the sbayes evaluator the way sbserved does at start-up:
// admission.NewIncrementalRONI over a calibration pool of 200, which
// trains the trial filters, binds each validation set and scores its
// baseline.
func BenchmarkRONIProbe(b *testing.B) {
	e := env(b)
	queries := make([]*tokenize.TokenStream, 32)
	r := e.RNG("roni-probe")
	for i := range queries {
		queries[i] = e.Tok.Stream(e.Gen.Message(r, i%2 == 0))
	}
	for _, c := range []struct {
		name string
		new  engine.Factory
	}{
		{"bound", func() engine.Classifier { return sbayes.New(sbayes.DefaultOptions(), e.Tok) }},
		{"learn-unlearn", func() engine.Classifier {
			return learnUnlearn{sbayes.New(sbayes.DefaultOptions(), e.Tok)}
		}},
		{"graham-bound", func() engine.Classifier { return graham.New(graham.DefaultOptions(), e.Tok) }},
		{"graham-learn-unlearn", func() engine.Classifier {
			return learnUnlearn{graham.New(graham.DefaultOptions(), e.Tok)}
		}},
	} {
		d, err := core.NewRONIBackend(core.DefaultRONIConfig(), e.Pool, c.new, e.RNG("roni-probe-pool"))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.MeasureImpactStream(nil, queries[i%len(queries)], i%2 == 0)
			}
		})
	}
	pool := e.Gen.Corpus(e.RNG("roni-bind-pool"), 100, 100)
	newSBayes := func() engine.Classifier { return sbayes.New(sbayes.DefaultOptions(), e.Tok) }
	b.Run("bind", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := admission.NewIncrementalRONI(admission.IncrementalRONIConfig{}, pool, newSBayes, e.RNG("roni-bind")); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBaselineGrahamVsSpamBayes measures the same dictionary
// attack against the Graham (2002) baseline combiner and the
// SpamBayes learner, reporting each one's ham loss at a 10% dose —
// the dose-response gap documented in internal/graham.
func BenchmarkBaselineGrahamVsSpamBayes(b *testing.B) {
	e := env(b)
	r := e.RNG("graham-bench")
	train := e.Gen.Corpus(r, 200, 200)
	probes := make([]*Message, 40)
	for i := range probes {
		probes[i] = e.Gen.HamMessage(r)
	}
	attack := core.NewDictionaryAttack(e.Optimal)
	attackMsg := attack.BuildAttack(r)
	n := core.AttackSize(0.10, train.Len())

	b.Run("spambayes", func(b *testing.B) {
		var loss float64
		for i := 0; i < b.N; i++ {
			f := eval.TrainFilter(train, sbayes.DefaultOptions(), e.Tok)
			f.LearnWeighted(attackMsg, true, n)
			flipped := 0
			for _, m := range probes {
				if l, _ := f.Classify(m); l != sbayes.Ham {
					flipped++
				}
			}
			loss = 100 * float64(flipped) / float64(len(probes))
		}
		b.ReportMetric(loss, "hamloss%")
	})
	b.Run("graham", func(b *testing.B) {
		var loss float64
		for i := 0; i < b.N; i++ {
			f := graham.NewDefault()
			for _, ex := range train.Examples {
				f.Learn(ex.Msg, ex.Spam)
			}
			f.LearnWeighted(attackMsg, true, n)
			flipped := 0
			for _, m := range probes {
				if spam, _ := f.IsSpam(m); spam {
					flipped++
				}
			}
			loss = 100 * float64(flipped) / float64(len(probes))
		}
		b.ReportMetric(loss, "hamloss%")
	})
}

// BenchmarkAblationChunkedDictionary compares the paper's replicated
// dictionary attack (whole dictionary in every email) against the
// stealthier chunked variant (dictionary split across the emails) at
// the same message count, reporting each variant's damage.
func BenchmarkAblationChunkedDictionary(b *testing.B) {
	e := env(b)
	r := e.RNG("chunk-ablation")
	train := e.Gen.Corpus(r, 200, 200)
	base := eval.TrainFilter(train, sbayes.DefaultOptions(), e.Tok)
	probes := make([]*tokenize.TokenStream, 40)
	for i := range probes {
		probes[i] = e.Tok.Stream(e.Gen.HamMessage(r))
	}
	attack := core.NewDictionaryAttack(e.Optimal)
	const copies = 20
	damage := func(f *sbayes.Filter) float64 {
		lost := 0
		for _, p := range probes {
			if l, _ := f.ClassifyTokenStream(p); l != sbayes.Ham {
				lost++
			}
		}
		return 100 * float64(lost) / float64(len(probes))
	}
	b.Run("replicated", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			f := base.Clone()
			f.LearnWeighted(attack.BuildAttack(r), true, copies)
			last = damage(f)
		}
		b.ReportMetric(last, "hamloss%")
	})
	b.Run("chunked", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			f := base.Clone()
			for _, m := range attack.BuildChunked(copies) {
				f.Learn(m, true)
			}
			last = damage(f)
		}
		b.ReportMetric(last, "hamloss%")
	})
}

// BenchmarkAblationDiscriminators sweeps the δ(E) cap: SpamBayes'
// 150 versus smaller and unbounded variants.
func BenchmarkAblationDiscriminators(b *testing.B) {
	e := env(b)
	r := e.RNG("disc-ablation")
	train := e.Gen.Corpus(r, 200, 200)
	probes := make([]*tokenize.TokenStream, 50)
	for i := range probes {
		probes[i] = e.Tok.Stream(e.Gen.HamMessage(r))
	}
	for _, cap := range []int{10, 50, 150, 10000} {
		opts := sbayes.DefaultOptions()
		opts.MaxDiscriminators = cap
		f := eval.TrainFilter(train, opts, e.Tok)
		b.Run(itoa(cap), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.ScoreTokenStream(probes[i%len(probes)])
			}
		})
	}
}

// BenchmarkAblationTokenizer compares tokenizer variants (the paper
// notes tokenization is the main difference between SpamBayes,
// BogoFilter and SpamAssassin's learners).
func BenchmarkAblationTokenizer(b *testing.B) {
	e := env(b)
	r := e.RNG("tok-ablation")
	msgs := make([]*Message, 100)
	for i := range msgs {
		msgs[i] = e.Gen.Message(r, i%2 == 0)
	}
	variants := map[string]tokenize.Options{
		"default":    tokenize.DefaultOptions(),
		"no-headers": func() tokenize.Options { o := tokenize.DefaultOptions(); o.Headers = false; return o }(),
		"no-skip":    func() tokenize.Options { o := tokenize.DefaultOptions(); o.SkipTokens = false; return o }(),
		"received":   func() tokenize.Options { o := tokenize.DefaultOptions(); o.MineReceived = true; return o }(),
	}
	for name, opts := range variants {
		tok := tokenize.New(opts)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tok.Stream(msgs[i%len(msgs)])
			}
		})
	}
}

// BenchmarkScenarioDeployment runs the §2.1 weekly-retraining
// deployment simulation (attack + RONI scrubbing).
func BenchmarkScenarioDeployment(b *testing.B) {
	e := env(b)
	cfg := scenario.DefaultConfig()
	cfg.Weeks = 3
	cfg.InitialMailStore = 300
	cfg.MessagesPerWeek = 150
	cfg.TestSize = 80
	cfg.AttackStartWeek = 2
	cfg.AttackFraction = 0.05
	cfg.Attack = core.NewDictionaryAttack(e.Optimal)
	cfg.UseRONI = true
	b.ResetTimer()
	var last *scenario.Result
	for i := 0; i < b.N; i++ {
		res, err := scenario.Run(e.Gen, cfg, e.RNG("scenario-bench"))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(100*last.FinalHamLoss(), "finalhamloss%")
}

// ---- Micro-benchmarks of the hot paths ----

// BenchmarkTokenizeMessage measures tokenizer throughput (MB/s) and
// per-message allocation on the serving path: an interned TokenStream
// built through the pooled per-message scratch arena, so steady-state
// tokenization of familiar vocabulary allocates only the stream's own
// arrays.
func BenchmarkTokenizeMessage(b *testing.B) {
	e := env(b)
	m := e.Gen.HamMessage(e.RNG("micro-tok"))
	tok := tokenize.Default()
	b.Run("stream", func(b *testing.B) {
		b.SetBytes(int64(len(m.Body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tok.Stream(m)
		}
	})
}

// The learner micro-benchmarks measure sbayes under their historical
// names; each has a graham arm, BenchmarkGraham<name>, on the same
// inputs. Both learners train, clone and save through the one token
// database (internal/tokendb), so each pair measures the two
// backends on the same database code.

// sbayesOn and grahamOn build each learner's default filter over tok.
func sbayesOn(tok *tokenize.Tokenizer) engine.Classifier {
	return sbayes.New(sbayes.DefaultOptions(), tok)
}

func grahamOn(tok *tokenize.Tokenizer) engine.Classifier {
	return graham.New(graham.DefaultOptions(), tok)
}

// trainedOn is a filter built by newClf over the environment's
// tokenizer, trained on 300 ham and 300 spam drawn from stream name.
func trainedOn(e *experiments.Env, name string, newClf func(*tokenize.Tokenizer) engine.Classifier) engine.Classifier {
	return eval.TrainBackend(func() engine.Classifier { return newClf(e.Tok) }, e.Gen.Corpus(e.RNG(name), 300, 300))
}

// BenchmarkLearnMessage measures training throughput.
func BenchmarkLearnMessage(b *testing.B)       { benchLearnMessage(b, sbayesOn) }
func BenchmarkGrahamLearnMessage(b *testing.B) { benchLearnMessage(b, grahamOn) }

func benchLearnMessage(b *testing.B, newClf func(*tokenize.Tokenizer) engine.Classifier) {
	e := env(b)
	r := e.RNG("micro-learn")
	msgs := make([]*tokenize.TokenStream, 200)
	for i := range msgs {
		msgs[i] = e.Tok.Stream(e.Gen.Message(r, i%2 == 0))
	}
	f := newClf(e.Tok)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.LearnTokenStream(msgs[i%len(msgs)], i%2 == 0, 1)
	}
}

// BenchmarkClassifyMessage measures classification throughput on a
// trained filter.
func BenchmarkClassifyMessage(b *testing.B)       { benchClassifyMessage(b, sbayesOn) }
func BenchmarkGrahamClassifyMessage(b *testing.B) { benchClassifyMessage(b, grahamOn) }

func benchClassifyMessage(b *testing.B, newClf func(*tokenize.Tokenizer) engine.Classifier) {
	e := env(b)
	r := e.RNG("micro-classify")
	f := eval.TrainBackend(func() engine.Classifier { return newClf(e.Tok) }, e.Gen.Corpus(r, 300, 300))
	probes := make([]*tokenize.TokenStream, 100)
	for i := range probes {
		probes[i] = e.Tok.Stream(e.Gen.Message(r, i%2 == 0))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ClassifyTokenStream(probes[i%len(probes)])
	}
}

// BenchmarkClassifyBatch measures the engine's concurrent batch
// scoring at growing worker counts against the serial baseline
// (workers=1); the speedup at N workers is the ratio of ns/op.
func BenchmarkClassifyBatch(b *testing.B) {
	e := env(b)
	r := e.RNG("micro-batch")
	f := eval.TrainFilter(e.Gen.Corpus(r, 300, 300), sbayes.DefaultOptions(), e.Tok)
	msgs := make([]*Message, 512)
	for i := range msgs {
		msgs[i] = e.Gen.Message(r, i%2 == 0)
	}
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4, 8} {
		eng := engine.New(f, engine.Config{Name: "bench", Workers: workers})
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.ClassifyBatch(ctx, msgs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedClassifyBatch measures batch scoring through the
// hash-by-recipient sharded layer at growing shard counts against the
// single-engine baseline (shards=1), crossed with per-shard worker
// counts. Contention at high parallelism is the quantity under test:
// shards multiply throughput because each sub-batch runs on its own
// worker pool against the one epoch the batch loaded, so
// shards=4/workers=1 should score the batch at least twice as fast as
// shards=1/workers=1 on a multi-core runner.
func BenchmarkShardedClassifyBatch(b *testing.B) {
	e := env(b)
	r := e.RNG("micro-sharded")
	f := eval.TrainFilter(e.Gen.Corpus(r, 300, 300), sbayes.DefaultOptions(), e.Tok)
	msgs := make([]*Message, 512)
	for i := range msgs {
		msgs[i] = e.Gen.Message(r, i%2 == 0)
		msgs[i].Header.Set("To", "user"+itoa(i%64)+"@corp.example")
	}
	ctx := context.Background()
	for _, shards := range []int{1, 2, 4, 8} {
		for _, workers := range []int{1, 2, 4} {
			// Shards share one trained read-only filter: batch scoring
			// never mutates it, and identical shards isolate the routing
			// and fan-out cost from training differences.
			clfs := make([]engine.Classifier, shards)
			for i := range clfs {
				clfs[i] = f
			}
			sh := engine.NewSharded(clfs, engine.Config{Name: "bench", Workers: workers})
			b.Run("shards="+itoa(shards)+"/workers="+itoa(workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sh.ClassifyBatch(ctx, msgs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkGuardedRetrainIncremental measures the daemon's one learn
// path: Guarded.RetrainIncremental over one 64-candidate batch
// (sbserved's -learn-batch) of organic mail and attack payloads —
// replicated dictionary copies and focused variants — through
// sbserved's wiring at its defaults: flood gate → budgeted incremental
// RONI → quarantine, with the publish hook granting review budget and
// reviewing the held mail. Each op starts from a fresh guard over the
// same trained model, built with the timer stopped, so every op vets,
// trains and publishes the same batch from the same state.
func BenchmarkGuardedRetrainIncremental(b *testing.B) {
	e := env(b)
	r := e.RNG("guarded-retrain")
	model := eval.TrainFilter(e.Gen.Corpus(r, 300, 300), sbayes.DefaultOptions(), e.Tok)
	pool := e.Gen.Corpus(r, 100, 100)
	target := e.Gen.HamMessage(r)
	focused, err := core.NewFocusedAttack(target, 0.3, []*Message{e.Gen.HamMessage(r), e.Gen.HamMessage(r)})
	if err != nil {
		b.Fatal(err)
	}
	dictionary := core.NewDictionaryAttack(e.Usenet).BuildAttack(r)
	batch := &Corpus{}
	for i := 0; i < 64; i++ {
		switch {
		case i%8 == 3:
			batch.Add(dictionary, true)
		case i%8 == 6:
			batch.Add(focused.BuildAttack(r), true)
		default:
			batch.Add(e.Gen.Message(r, i%2 == 0), i%2 == 0)
		}
	}
	newGuard := func(b *testing.B) *engine.Guarded {
		roni, err := admission.NewIncrementalRONI(admission.IncrementalRONIConfig{BudgetPerMessage: 0.05, Burst: 4},
			pool, func() engine.Classifier { return sbayes.NewDefault() }, e.RNG("guarded-retrain-roni"))
		if err != nil {
			b.Fatal(err)
		}
		chain := admission.NewChain(admission.NewTokenFloodGate(admission.FloodGateConfig{MaxDistinct: 2000}), roni)
		q := admission.NewQuarantine(admission.QuarantineConfig{Capacity: 256})
		gcfg := engine.GuardedConfig{Quarantine: q}
		gcfg.PostPublish = append(gcfg.PostPublish, func() {
			roni.Grant(4)
			q.Review(func(m *Message, ts *tokenize.TokenStream, spam bool) admission.Decision {
				return chain.Admit(context.Background(), m, ts, spam)
			})
		})
		return engine.NewGuarded(engine.New(model.Clone(), engine.Config{Name: "bench"}), chain, gcfg)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	var g *engine.Guarded
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g = newGuard(b)
		b.StartTimer()
		if _, err := g.RetrainIncremental(ctx, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s := g.Stats().Admission
	b.ReportMetric(float64(s.Admitted), "admitted/op")
	b.ReportMetric(float64(s.Quarantined), "held/op")
}

// BenchmarkIncrementalRONIAdmit measures the admitter alone, on
// candidates tokenized once up front as the guard tokenizes them: the
// memoized replicated-payload fast path (one probe serves every copy,
// through the digest-keyed memo the daemon uses), the deferred path
// (bucket empty, quarantine verdict), and a full probe per call (the
// cost the budget amortizes).
func BenchmarkIncrementalRONIAdmit(b *testing.B) {
	e := env(b)
	pool := e.Gen.Corpus(e.RNG("roni-admit-pool"), 200, 200)
	cfg := admission.IncrementalRONIConfig{
		RONI: core.RONIConfig{TrainSize: 10, ValSize: 20, Trials: 2, SpamPrevalence: 0.5, Threshold: 5.5},
	}
	newAdmitter := func(b *testing.B, budget, burst float64) *admission.IncrementalRONI {
		c := cfg
		c.BudgetPerMessage, c.Burst = budget, burst
		a, err := admission.NewIncrementalRONI(c, pool, func() engine.Classifier { return sbayes.NewDefault() }, e.RNG("roni-admit"))
		if err != nil {
			b.Fatal(err)
		}
		return a
	}
	ctx := context.Background()
	payload := core.NewDictionaryAttack(e.Usenet).BuildAttack(e.RNG("roni-admit-atk"))
	payloadStream := e.Tok.Stream(payload)
	organic := make([]*Message, 128)
	streams := make([]*tokenize.TokenStream, len(organic))
	r := e.RNG("roni-admit-org")
	for i := range organic {
		organic[i] = e.Gen.Message(r, i%2 == 0)
		streams[i] = e.Tok.Stream(organic[i])
	}
	b.Run("memoized", func(b *testing.B) {
		a := newAdmitter(b, 1, 8)
		a.Admit(ctx, payload, payloadStream, true) // pay the one probe up front
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Admit(ctx, payload, payloadStream, true)
		}
	})
	b.Run("deferred", func(b *testing.B) {
		a := newAdmitter(b, 0.0001, 0.5) // bucket never reaches a probe
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.Admit(ctx, organic[i%len(organic)], streams[i%len(streams)], i%2 == 0)
		}
	})
	b.Run("probe", func(b *testing.B) {
		// Every call probes: each lap over the organic streams starts
		// on a fresh admitter, built with the timer stopped, so the
		// memo never hits.
		var a *admission.IncrementalRONI
		for i := 0; i < b.N; i++ {
			if i%len(streams) == 0 {
				b.StopTimer()
				a = newAdmitter(b, 1, 1e12)
				b.StartTimer()
			}
			a.Admit(ctx, organic[i%len(organic)], streams[i%len(streams)], i%2 == 0)
		}
	})
}

// BenchmarkServeWhileRetraining proves the snapshot-swap serving
// layer: batch scoring throughput with a continuous background
// RetrainIncremental loop publishing 64-message deltas (sbserved's
// -learn-batch), against the same engine idle. The two ns/op figures
// should be close — scoring never blocks on the rebuild — and the
// retraining run reports how many generations were published while it
// scored.
func BenchmarkServeWhileRetraining(b *testing.B) {
	e := env(b)
	r := e.RNG("serve-retrain")
	store := e.Gen.Corpus(r, 400, 400)
	backend, err := engine.Lookup("sbayes")
	if err != nil {
		b.Fatal(err)
	}
	msgs := make([]*Message, 256)
	for i := range msgs {
		msgs[i] = e.Gen.Message(r, i%2 == 0)
	}
	delta := e.Gen.Corpus(r, 32, 32)
	ctx := context.Background()
	newEngine := func() *engine.Engine {
		return engine.New(eval.TrainBackend(backend.New, store), engine.Config{Name: "serve", Workers: 4})
	}

	b.Run("idle", func(b *testing.B) {
		eng := newEngine()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.ClassifyBatch(ctx, msgs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("retraining", func(b *testing.B) {
		eng := newEngine()
		// The flood gate's bound admits every organic message, so the
		// guard trains every delta.
		guard := engine.NewGuarded(eng, admission.NewTokenFloodGate(admission.FloodGateConfig{MaxDistinct: 1 << 20}), engine.GuardedConfig{})
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := guard.RetrainIncremental(ctx, delta); err != nil {
					b.Error(err)
					return
				}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.ClassifyBatch(ctx, msgs); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
		b.ReportMetric(float64(eng.Stats().Retrains)/float64(b.N), "retrains/op")
	})
}

// BenchmarkObsOverhead pins the cost of full instrumentation on the
// classify hot path: the same trained filter behind an engine wired
// to a live registry and an every-call tracer, against the bare
// engine. The benchmark fails outright if instrumentation adds even
// one allocation per classify — the lock-free instruments and the
// preallocated trace ring must write in place.
func BenchmarkObsOverhead(b *testing.B) {
	e := env(b)
	r := e.RNG("obs-overhead")
	f := eval.TrainFilter(e.Gen.Corpus(r, 300, 300), sbayes.DefaultOptions(), e.Tok)
	m := e.Gen.HamMessage(r)

	bare := engine.New(f, engine.Config{Name: "bare"})
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(1024, 1)
	inst := engine.New(f, engine.Config{Name: "inst", Obs: reg, Trace: tracer})

	// Warm both paths (interning and scratch pools settle on first
	// contact with the message), then pin the delta at zero.
	bare.Classify(m)
	inst.Classify(m)
	base := testing.AllocsPerRun(200, func() { bare.Classify(m) })
	with := testing.AllocsPerRun(200, func() { inst.Classify(m) })
	if extra := with - base; extra > 0 {
		b.Fatalf("instrumentation adds %.1f allocs/op on classify (bare %.1f, instrumented %.1f)", extra, base, with)
	}

	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bare.Classify(m)
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inst.Classify(m)
		}
	})
}

// TestOneShardGuardMatchesEngine pins, beside BenchmarkObsOverhead's
// zero-extra-allocation check, that a single engine served as a
// one-shard fleet costs nothing a bare Engine does not: the guard's
// Classify allocates exactly what Engine.Classify allocates on the
// same filter (checked outside -race builds), and no path through the
// one-shard fleet — classify, batch scoring, vetting, retraining,
// swapping — ever calls its routing key.
func TestOneShardGuardMatchesEngine(t *testing.T) {
	e := env(t)
	r := e.RNG("one-shard")
	f := eval.TrainFilter(e.Gen.Corpus(r, 300, 300), sbayes.DefaultOptions(), e.Tok)
	m := e.Gen.HamMessage(r)

	var keyCalls atomic.Int64
	key := func(*Message) uint64 { keyCalls.Add(1); return 0 }
	bare := engine.New(f, engine.Config{Name: "bare"})
	gate := admission.NewTokenFloodGate(admission.FloodGateConfig{MaxDistinct: 1 << 20})
	guard := engine.NewGuarded(
		engine.NewSharded([]engine.Classifier{f.Clone()}, engine.Config{Name: "one", Key: key}),
		gate, engine.GuardedConfig{})

	bare.Classify(m)
	guard.Classify(m)
	// Under -race sync.Pool drops Puts at random, so allocation counts
	// vary run to run; the exact comparison holds in every other build.
	if !raceEnabled {
		base := testing.AllocsPerRun(200, func() { bare.Classify(m) })
		one := testing.AllocsPerRun(200, func() { guard.Classify(m) })
		if one != base {
			t.Errorf("one-shard guard Classify allocates %.1f/op, Engine.Classify %.1f/op", one, base)
		}
	}

	ctx := context.Background()
	batch := e.Gen.Corpus(r, 8, 8)
	msgs := append(batch.Ham(), batch.Spam()...)
	if _, err := guard.ClassifyBatch(ctx, msgs); err != nil {
		t.Fatal(err)
	}
	if _, _, err := guard.ScoreBatch(ctx, msgs); err != nil {
		t.Fatal(err)
	}
	guard.Vet(ctx, m, false)
	if _, err := guard.RetrainIncremental(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if _, err := guard.Swap(f.Clone()); err != nil {
		t.Fatal(err)
	}
	guard.Engine().Partition(batch)
	if n := keyCalls.Load(); n != 0 {
		t.Errorf("one-shard fleet called its routing key %d times", n)
	}
	if st := guard.Stats(); st.Name != "one" || st.Shards[0].Name != "one" || st.Admission.Vetted != 1+uint64(batch.Len()) {
		t.Errorf("one-shard stats %+v", st)
	}
}

// BenchmarkCloneFilter measures the cost of branching a poisoned
// filter off a clean baseline.
func BenchmarkCloneFilter(b *testing.B)       { benchCloneFilter(b, sbayesOn) }
func BenchmarkGrahamCloneFilter(b *testing.B) { benchCloneFilter(b, grahamOn) }

func benchCloneFilter(b *testing.B, newClf func(*tokenize.Tokenizer) engine.Classifier) {
	f := trainedOn(env(b), "micro-clone", newClf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.CloneClassifier()
	}
}

// BenchmarkFilterPersist measures database serialization.
func BenchmarkFilterPersist(b *testing.B)       { benchFilterPersist(b, sbayesOn) }
func BenchmarkGrahamFilterPersist(b *testing.B) { benchFilterPersist(b, grahamOn) }

func benchFilterPersist(b *testing.B, newClf func(*tokenize.Tokenizer) engine.Classifier) {
	f := trainedOn(env(b), "micro-persist", newClf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Save(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateMessage measures synthetic corpus throughput.
func BenchmarkGenerateMessage(b *testing.B) {
	e := env(b)
	r := e.RNG("micro-gen")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Gen.Message(r, i%2 == 0)
	}
}

// BenchmarkBuildUsenetLexicon measures lexicon construction from a
// corpus sample.
func BenchmarkBuildUsenetLexicon(b *testing.B) {
	e := env(b)
	g := e.Gen
	for i := 0; i < b.N; i++ {
		lex := UsenetLexicon(g, e.RNG("micro-lex"), 100000, 900)
		if lex.Len() == 0 {
			b.Fatal("empty lexicon")
		}
	}
}

// itoa for sub-benchmark names.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
