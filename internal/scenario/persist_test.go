package scenario

// Tests for RunOnline's durable mode: checkpoint cadence, the
// simulated crash/restart point, and the recovery semantics — an
// every-publish checkpoint makes the crash verdict-transparent, a
// sparse cadence resumes an older generation and the trace shows it.

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/stats"
)

// durableCfg is smallCfg scaled down further — the durable-mode tests
// run several full simulations each.
func durableCfg() Config {
	cfg := smallCfg()
	cfg.Weeks = 4
	cfg.InitialMailStore = 300
	cfg.MessagesPerWeek = 150
	return cfg
}

func TestDurableConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.CheckpointEvery = -1 },
		func(c *Config) { c.CheckpointEvery = 2 }, // no store
		func(c *Config) { c.CrashAtWeek = -1 },
		func(c *Config) { c.CrashAtWeek = 2 }, // no store
		func(c *Config) { c.Checkpoints = engine.NewMemStore(); c.CrashAtWeek = 99 },
	}
	for i, mutate := range bad {
		c := durableCfg()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
	ok := durableCfg()
	ok.Checkpoints = engine.NewMemStore()
	ok.CheckpointEvery = 2
	ok.CrashAtWeek = 3
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

// sameOutcome compares the user-visible trace of two runs, ignoring
// the durability bookkeeping fields.
func sameOutcome(t *testing.T, a, b *OnlineResult) {
	t.Helper()
	if len(a.Weeks) != len(b.Weeks) {
		t.Fatalf("%d weeks vs %d", len(a.Weeks), len(b.Weeks))
	}
	for i := range a.Weeks {
		wa, wb := a.Weeks[i], b.Weeks[i]
		if wa.Delivered != wb.Delivered {
			t.Errorf("week %d: Delivered %+v != %+v", wa.Week, wa.Delivered, wb.Delivered)
		}
		if wa.Generation != wb.Generation {
			t.Errorf("week %d: Generation %d != %d", wa.Week, wa.Generation, wb.Generation)
		}
		if wa.MailStoreSize != wb.MailStoreSize {
			t.Errorf("week %d: MailStoreSize %d != %d", wa.Week, wa.MailStoreSize, wb.MailStoreSize)
		}
		for s := range wa.ByShard {
			if wa.ByShard[s] != wb.ByShard[s] {
				t.Errorf("week %d shard %d: %+v != %+v", wa.Week, s, wa.ByShard[s], wb.ByShard[s])
			}
		}
	}
}

// TestOnlineCrashRecoveryTransparent is the core durability claim:
// with a checkpoint at every publish, killing the engine at a week
// boundary and resuming from the store changes nothing the users can
// see — the resumed snapshot serves the exact verdicts the lost
// in-memory engine would have.
func TestOnlineCrashRecoveryTransparent(t *testing.T) {
	g := testGen(t)
	cfg := durableCfg()

	clean, err := RunOnline(g, cfg, stats.NewRNG(31))
	if err != nil {
		t.Fatal(err)
	}

	cfg.Checkpoints = engine.NewMemStore()
	cfg.CrashAtWeek = 2
	crashed, err := RunOnline(g, cfg, stats.NewRNG(31))
	if err != nil {
		t.Fatal(err)
	}
	sameOutcome(t, clean, crashed)

	for _, w := range crashed.Weeks {
		if got, want := w.Resumed, w.Week == 2; got != want {
			t.Errorf("week %d: Resumed = %v", w.Week, got)
		}
		// One publish per week from week 2 on, each checkpointed.
		if want := 0; w.Week > 1 {
			want = 1
			if w.Checkpointed != want {
				t.Errorf("week %d: Checkpointed = %d, want %d", w.Week, w.Checkpointed, want)
			}
		}
	}
	render := crashed.Render()
	for _, want := range []string{"2*", "resumed from the checkpoint"} {
		if !strings.Contains(render, want) {
			t.Errorf("render missing %q:\n%s", want, render)
		}
	}
	if strings.Contains(clean.Render(), "resumed") {
		t.Error("clean render mentions a resume")
	}
}

// TestOnlineSparseCheckpointLosesGenerations shows the other side:
// with a cadence wider than the retrain rate, the crash resumes an
// older generation — recovery silently rewinds the filter to the
// last persisted state, which is exactly the provenance gap the
// generation stamp makes visible.
func TestOnlineSparseCheckpointLosesGenerations(t *testing.T) {
	g := testGen(t)
	cfg := durableCfg()
	cfg.Checkpoints = engine.NewMemStore()
	cfg.CheckpointEvery = 3 // only the bootstrap makes it to disk before the crash
	cfg.CrashAtWeek = 3
	res, err := RunOnline(g, cfg, stats.NewRNG(32))
	if err != nil {
		t.Fatal(err)
	}
	w3 := res.Weeks[2]
	if !w3.Resumed {
		t.Fatal("week 3 not marked resumed")
	}
	// Pre-crash the engine served generation 3; the only persisted
	// generation is the bootstrap's 1, so that is what the restart
	// got.
	if w3.Generation != 1 {
		t.Fatalf("resumed generation %d, want the bootstrap's 1", w3.Generation)
	}
	// The line continues from the resumed generation.
	if g4 := res.Weeks[3].Generation; g4 != 2 {
		t.Fatalf("week 4 generation %d, want 2", g4)
	}
}

// TestOnlineShardedCrashRecoveryTransparent is the fleet version of
// the transparency claim, and additionally pins that each checkpoint
// is one record of every shard and the newest resumes the fleet.
func TestOnlineShardedCrashRecoveryTransparent(t *testing.T) {
	g := testGen(t)
	cfg := durableCfg()
	cfg.Shards = 2
	cfg.Recipients = 6

	clean, err := RunOnline(g, cfg, stats.NewRNG(33))
	if err != nil {
		t.Fatal(err)
	}

	store := engine.NewMemStore()
	cfg.Checkpoints = store
	cfg.CrashAtWeek = 2
	crashed, err := RunOnline(g, cfg, stats.NewRNG(33))
	if err != nil {
		t.Fatal(err)
	}
	sameOutcome(t, clean, crashed)
	if !crashed.Weeks[1].Resumed {
		t.Fatal("week 2 not marked resumed")
	}

	// The store holds one record per checkpoint, each of every shard,
	// and the newest resumes as one fleet outside the scenario.
	gens, err := store.Generations(ShardedCheckpointName)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) == 0 {
		t.Fatal("no persisted generations")
	}
	env, err := engine.LatestEnvelope(store, ShardedCheckpointName)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Shards) != cfg.Shards {
		t.Errorf("newest record holds %d shards, want %d", len(env.Shards), cfg.Shards)
	}
	resumed, _, err := engine.ResumeEngine(store, ShardedCheckpointName, cfg.Shards, engine.Config{})
	if err != nil {
		t.Fatalf("the record does not resume outside the scenario: %v", err)
	}
	if got, want := resumed.Generation(), gens[len(gens)-1]; got != want {
		t.Errorf("fleet resumed at generation %d, want the newest saved %d", got, want)
	}
}

// TestOnlineCheckpointScrubbedPoisonStaysScrubbed ties durability to
// the paper's threat model: a deployment that checkpoints after RONI
// scrubbing must not resurrect rejected poison on restart — the
// resumed store sizes and rejection counters match the uncrashed
// run's exactly (covered by sameOutcome in the transparent test), and
// the resumed filter was trained without the rejected messages.
func TestOnlineCheckpointScrubbedPoisonStaysScrubbed(t *testing.T) {
	if testing.Short() {
		t.Skip("full RONI deployment simulation")
	}
	g := testGen(t)
	cfg := durableCfg()
	cfg.UseRONI = true
	cfg.Checkpoints = engine.NewMemStore()
	cfg.CrashAtWeek = 3
	res, err := RunOnline(g, cfg, stats.NewRNG(34))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Weeks[2].Resumed {
		t.Fatal("week 3 not marked resumed")
	}
	// The resumed line keeps serving: the last week's at-delivery ham
	// loss stays at clean-deployment levels.
	if loss := res.FinalHamLoss(); loss > 0.15 {
		t.Errorf("final ham loss %v after crash recovery", loss)
	}
}
