// Command subvert regenerates every table and figure of the paper's
// evaluation. Each subcommand prints the paper-style rows/series for
// one exhibit; "all" runs the full suite.
//
// Usage:
//
//	subvert [flags] <exhibit>
//
// Exhibits: table1, fig1, fig2, fig3, fig4, fig5, roni, ratios, all.
//
// Flags:
//
//	-scale full|small   experiment scale (default full)
//	-seed N             override the experiment seed
//	-workers N          bound fold parallelism (0 = one per fold)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/scenario"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it prints the exhibits to stdout and progress
// to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("subvert", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.String("scale", "full", "experiment scale: full or small")
	seed := fs.Uint64("seed", 0, "override the experiment seed (0 keeps the default)")
	workers := fs.Int("workers", 0, "bound fold-level parallelism (0 = one goroutine per fold)")
	prevalence := fs.Float64("prevalence", 0, "override training spam prevalence (Table 1 also lists 0.75)")
	train := fs.Int("train", 0, "override the dictionary-attack training set size (Table 1 also lists 2000)")
	csvDir := fs.String("csv", "", "also write each exhibit's series as CSV into this directory")
	fs.Usage = func() { usage(fs) }
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		usage(fs)
		return 2
	}
	exhibit := fs.Arg(0)
	p := printer{out: stdout, log: stderr, csvDir: *csvDir}
	fatal := func(err error) int {
		fmt.Fprintf(stderr, "subvert: %v\n", err)
		return 1
	}

	var cfg experiments.Config
	switch *scale {
	case "full":
		cfg = experiments.FullScale()
	case "small":
		cfg = experiments.SmallScale()
	default:
		fmt.Fprintf(stderr, "subvert: unknown scale %q\n", *scale)
		return 2
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *prevalence != 0 {
		cfg.SpamPrevalence = *prevalence
	}
	if *train != 0 {
		cfg.TrainSize = *train
	}
	cfg.Workers = *workers
	if err := cfg.Validate(); err != nil {
		return fatal(err)
	}

	if exhibit == "table1" {
		// Table 1 needs no environment.
		fmt.Fprint(stdout, experiments.Table1(cfg))
		return 0
	}

	start := time.Now()
	fmt.Fprintf(stderr, "building environment (scale=%s, seed=%d)...\n", *scale, cfg.Seed)
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		return fatal(err)
	}
	fmt.Fprintf(stderr, "environment ready in %v: %s\n\n", time.Since(start).Round(time.Millisecond), env.Describe())

	exhibits := map[string]func(*experiments.Env) error{
		"fig1": func(e *experiments.Env) error {
			res, err := experiments.RunFig1(e)
			return render(p, "fig1", res, err)
		},
		"fig2": func(e *experiments.Env) error {
			res, err := experiments.RunFig2(e)
			return render(p, "fig2", res, err)
		},
		"fig3": func(e *experiments.Env) error {
			res, err := experiments.RunFig3(e)
			return render(p, "fig3", res, err)
		},
		"fig4": func(e *experiments.Env) error {
			res, err := experiments.RunFig4(e)
			return render(p, "fig4", res, err)
		},
		"fig5": func(e *experiments.Env) error {
			res, err := experiments.RunFig5(e)
			return render(p, "fig5", res, err)
		},
		"roni": func(e *experiments.Env) error {
			res, err := experiments.RunRONI(e)
			return render(p, "roni", res, err)
		},
		"ratios": func(e *experiments.Env) error {
			res, err := experiments.RunTokenRatio(e)
			return render(p, "ratios", res, err)
		},
		"informed": func(e *experiments.Env) error {
			res, err := experiments.RunInformed(e)
			return render(p, "informed", res, err)
		},
		"pseudospam": func(e *experiments.Env) error {
			res, err := experiments.RunPseudospam(e)
			return render(p, "pseudospam", res, err)
		},
		"transfer": func(e *experiments.Env) error {
			res, err := experiments.RunTransfer(e)
			return render(p, "transfer", res, err)
		},
		"backends": func(e *experiments.Env) error {
			res, err := experiments.RunBackendTransfer(e)
			return render(p, "backends", res, err)
		},
		"deploy":    func(e *experiments.Env) error { return runDeploy(stdout, e) },
		"online":    func(e *experiments.Env) error { return runOnline(stdout, e) },
		"sharded":   func(e *experiments.Env) error { return runSharded(stdout, e) },
		"admission": func(e *experiments.Env) error { return runAdmission(stdout, e) },
	}

	switch exhibit {
	case "all":
		fmt.Fprint(stdout, experiments.Table1(cfg))
		fmt.Fprintln(stdout)
		for _, name := range []string{"ratios", "fig1", "fig2", "fig3", "fig4", "fig5", "roni", "informed", "pseudospam", "transfer", "backends"} {
			stepStart := time.Now()
			if err := exhibits[name](env); err != nil {
				return fatal(fmt.Errorf("%s: %w", name, err))
			}
			fmt.Fprintf(stderr, "[%s finished in %v]\n\n", name, time.Since(stepStart).Round(time.Millisecond))
		}
	default:
		fn, ok := exhibits[exhibit]
		if !ok {
			fmt.Fprintf(stderr, "subvert: unknown exhibit %q\n", exhibit)
			usage(fs)
			return 2
		}
		if err := fn(env); err != nil {
			return fatal(err)
		}
	}
	fmt.Fprintf(stderr, "total: %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}

// smallScale reports whether e is the small-scale environment.
func smallScale(e *experiments.Env) bool { return e.Cfg.TrainSize < 2000 }

// deployment returns the simulator's default deployment, shrunk at
// small scale to four 200-message weeks with the attack from week 2.
func deployment(e *experiments.Env) scenario.Config {
	cfg := scenario.DefaultConfig()
	if smallScale(e) {
		cfg.Weeks = 4
		cfg.InitialMailStore = 400
		cfg.MessagesPerWeek = 200
		cfg.TestSize = 100
		cfg.AttackFraction = 0.05
		cfg.AttackStartWeek = 2
	}
	return cfg
}

// runDeploy simulates the §2.1 deployment three ways: clean, under
// the dictionary attack, and with RONI scrubbing the pipeline.
func runDeploy(w io.Writer, e *experiments.Env) error {
	cfg := deployment(e)
	attack := core.NewDictionaryAttack(e.Usenet)
	variants := []struct {
		name   string
		mutate func(*scenario.Config)
	}{
		{"clean", func(c *scenario.Config) {}},
		{"attacked", func(c *scenario.Config) { c.Attack = attack }},
		{"RONI-scrubbed", func(c *scenario.Config) { c.Attack = attack; c.UseRONI = true }},
		{"graham-attacked", func(c *scenario.Config) { c.Backend = "graham"; c.Attack = attack }},
	}
	for _, v := range variants {
		c := cfg
		v.mutate(&c)
		res, err := scenario.Run(e.Gen, c, e.RNG("deploy-"+v.name))
		if err != nil {
			return fmt.Errorf("deploy %s: %w", v.name, err)
		}
		fmt.Fprintf(w, "== %s ==\n%s\n", v.name, res.Render())
	}
	return nil
}

// runOnline simulates the same deployment per message through the
// serving engine: every verdict is the one the user saw at delivery,
// and each week's retrain is built in the background and swapped in
// a third of the way into the next week.
func runOnline(w io.Writer, e *experiments.Env) error {
	cfg := deployment(e)
	cfg.RetrainLag = cfg.MessagesPerWeek / 3
	attack := core.NewDictionaryAttack(e.Usenet)
	variants := []struct {
		name   string
		mutate func(*scenario.Config)
	}{
		{"clean", func(c *scenario.Config) {}},
		{"attacked", func(c *scenario.Config) { c.Attack = attack }},
		{"attacked, incremental retraining", func(c *scenario.Config) {
			c.Attack = attack
			c.Retraining = scenario.RetrainIncremental
		}},
		{"attacked, chunked x4", func(c *scenario.Config) { c.Attack = attack; c.AttackChunks = 4 }},
		{"RONI-scrubbed", func(c *scenario.Config) { c.Attack = attack; c.UseRONI = true }},
	}
	for _, v := range variants {
		c := cfg
		v.mutate(&c)
		res, err := scenario.RunOnline(e.Gen, c, e.RNG("online-"+v.name))
		if err != nil {
			return fmt.Errorf("online %s: %w", v.name, err)
		}
		fmt.Fprintf(w, "== %s ==\n%s\n", v.name, res.Render())
	}
	return nil
}

// runSharded serves the online deployment through a hash-by-recipient
// sharded engine: each user's mail lands on — and trains — one shard,
// so an attack addressed to a single victim poisons only that shard.
// The per-shard ham-loss table separates target damage from
// collateral, the observable the single-engine mode cannot produce.
func runSharded(w io.Writer, e *experiments.Env) error {
	cfg := deployment(e)
	cfg.Shards = 4
	cfg.Recipients = 8
	cfg.RetrainLag = cfg.MessagesPerWeek / 3
	target := scenario.RecipientAddress(0)
	attack := core.NewDictionaryAttack(e.Usenet)
	variants := []struct {
		name   string
		mutate func(*scenario.Config)
	}{
		{"clean", func(c *scenario.Config) {}},
		{"targeted: all poison addressed to " + target, func(c *scenario.Config) {
			c.Attack = attack
			c.AttackRecipient = target
		}},
		{"spread: poison addressed across the population", func(c *scenario.Config) {
			c.Attack = attack
		}},
		{"targeted + RONI scrubbing at the gateway", func(c *scenario.Config) {
			c.Attack = attack
			c.AttackRecipient = target
			c.UseRONI = true
		}},
	}
	for _, v := range variants {
		c := cfg
		v.mutate(&c)
		if c.AttackRecipient != "" {
			fmt.Fprintf(w, "== %s (routes to shard %d) ==\n", v.name, c.TargetShard())
		} else {
			fmt.Fprintf(w, "== %s ==\n", v.name)
		}
		res, err := scenario.RunOnline(e.Gen, c, e.RNG("sharded-"+v.name))
		if err != nil {
			return fmt.Errorf("sharded %s: %w", v.name, err)
		}
		fmt.Fprintln(w, res.Render())
	}
	return nil
}

// runAdmission replays the §4 attacks against guarded and unguarded
// engines at equal dose: the unguarded deployment collapses under the
// dictionary attack while the admission pipeline (flood gate →
// budgeted incremental RONI → quarantine, thresholds refit at every
// swap) holds ham loss to a small fraction of it — with a total probe
// bill strictly below what a single week-end batch RONI pass would
// spend. An adaptive attacker then demonstrates the feedback loop
// (dose collapses against the guard, ramps without it), ham-labeled
// pseudospam shows the structural gate catching what the impact-only
// defense waves through, and the focused attack shows the pipeline's
// honest limit: a narrow-vocabulary targeted payload passes the gate
// and mostly evades the probes, exactly as §5.1 predicts for RONI.
func runAdmission(w io.Writer, e *experiments.Env) error {
	cfg := deployment(e)
	admit := scenario.AdmissionConfig{}
	if smallScale(e) {
		// The small-scale Usenet lexicon is only 1k words, so the flood
		// gate's bound scales down with it (organic mail stays far
		// below; the full-scale default is 1024 against a 90k payload).
		admit.FloodGateMaxDistinct = 500
	}
	cfg.RetrainLag = cfg.MessagesPerWeek / 3
	dict := core.NewDictionaryAttack(e.Usenet)

	run := func(name string, mutate func(*scenario.Config)) (*scenario.OnlineResult, error) {
		c := cfg
		mutate(&c)
		res, err := scenario.RunOnline(e.Gen, c, e.RNG("admission-"+name))
		if err != nil {
			return nil, fmt.Errorf("admission %s: %w", name, err)
		}
		fmt.Fprintf(w, "== %s ==\n%s\n", name, res.Render())
		return res, nil
	}

	unguarded, err := run("unguarded under the dictionary attack", func(c *scenario.Config) {
		c.Attack = dict
	})
	if err != nil {
		return err
	}
	guarded, err := run("guarded: inline admission at the same dose", func(c *scenario.Config) {
		c.Attack = dict
		c.Admission = &admit
	})
	if err != nil {
		return err
	}

	totalProbes, maxBatch := 0, 0
	for _, w := range guarded.Weeks {
		totalProbes += w.Admission.Probes
		if w.Admission.BatchProbeEquivalent > maxBatch {
			maxBatch = w.Admission.BatchProbeEquivalent
		}
	}
	fmt.Fprintf(w, "headline: final at-delivery ham loss %.1f%% guarded vs %.1f%% unguarded at equal dose;\n",
		100*guarded.FinalHamLoss(), 100*unguarded.FinalHamLoss())
	fmt.Fprintf(w, "incremental probe budget: %d probes across %d weeks vs %d for ONE week-end batch RONI pass\n\n",
		totalProbes, len(guarded.Weeks), maxBatch)

	adaptive := func() core.Attacker {
		a, err := core.NewAdaptiveAttacker(dict, core.DefaultAdaptiveConfig())
		if err != nil {
			panic(err) // config is the validated default
		}
		return a
	}
	if _, err := run("adaptive attacker vs the guard (dose collapses)", func(c *scenario.Config) {
		c.Attack = adaptive()
		c.AttackAdaptive = true
		c.Admission = &admit
	}); err != nil {
		return err
	}
	if _, err := run("adaptive attacker unguarded (dose ramps)", func(c *scenario.Config) {
		c.Attack = adaptive()
		c.AttackAdaptive = true
	}); err != nil {
		return err
	}
	if _, err := run("pseudospam: dictionary payload under ham labels, guarded", func(c *scenario.Config) {
		c.Attack = dict
		c.AttackLabelHam = true
		c.Admission = &admit
	}); err != nil {
		return err
	}

	// The honest limit: a focused attack's narrow payload walks through
	// the structural gate, and its per-message impact is too small for
	// the probes — the admission counters show it being admitted.
	target := e.Gen.HamMessage(e.RNG("admission-target"))
	focused, err := core.NewFocusedAttack(target, 0.5, nil)
	if err != nil {
		return err
	}
	if _, err := run("focused attack vs the guard (the pipeline's limit)", func(c *scenario.Config) {
		c.Attack = focused
		c.Admission = &admit
	}); err != nil {
		return err
	}
	return nil
}

// renderable is any experiment result.
type renderable interface{ Render() string }

// printer is where exhibits go: their renders to out and, when csvDir
// is set, their series as CSV into it, each file named on log.
type printer struct {
	out, log io.Writer
	csvDir   string
}

// render prints a result, optionally exports it as CSV, and
// propagates the driver error.
func render[T renderable](p printer, name string, res T, err error) error {
	if err != nil {
		return err
	}
	fmt.Fprintln(p.out, res.Render())
	if p.csvDir == "" {
		return nil
	}
	cw, ok := any(res).(experiments.CSVWriter)
	if !ok {
		return nil
	}
	if err := os.MkdirAll(p.csvDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(p.csvDir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := cw.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(p.log, "wrote %s\n", path)
	return nil
}

func usage(fs *flag.FlagSet) {
	fmt.Fprintf(fs.Output(), `usage: subvert [flags] <exhibit>

Exhibits (each regenerates one table/figure of the paper):
  table1   experimental parameter matrix
  fig1     dictionary attacks (optimal / usenet / aspell) vs. attack fraction
  fig2     focused attack vs. token guess probability
  fig3     focused attack vs. attack volume
  fig4     token scores before/after the focused attack
  fig5     dynamic threshold defense vs. the dictionary attack
  roni     RONI defense impact statistics (§5.1)
  ratios   attack-to-corpus token volume check (§4.2)

Extensions (features the paper sketches but does not evaluate):
  informed    constrained-optimal attack under a word budget (§3.4)
  pseudospam  ham-labeled attack placing spam in the inbox (§2.2)
  transfer    the attack against BogoFilter / SpamAssassin profiles (conclusion)
  backends    the attack against every registered learner backend (sbayes, graham)
  deploy      §2.1 weekly-retraining deployment: clean / attacked / RONI-scrubbed /
              graham backend under attack
  online      the same deployment one message at a time through the serving
              engine: at-delivery verdicts, background retrains swapped in
              mid-week (periodic vs. incremental, replicated vs. chunked)
  sharded     the online deployment partitioned across recipient-hashed
              engine shards: an attack addressed to one victim poisons only
              that user's shard (per-shard target vs. collateral damage)
  admission   the §4 attacks against guarded vs. unguarded engines: inline
              training-data vetting (flood gate → budgeted incremental RONI →
              quarantine, thresholds refit at each swap) holds ham loss to a
              fraction of the unguarded run below one batch pass's probe
              bill; adaptive attacker, ham-labeled pseudospam, focused limit

  all      everything above

Flags:
`)
	fs.PrintDefaults()
}
