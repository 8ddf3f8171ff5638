package scenario

// Tests for the sharded (hash-by-recipient multi-engine) online
// deployment mode.

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lexicon"
	"repro/internal/stats"
)

// shardedCfg is smallCfg served by 2 shards over 4 users.
func shardedCfg() Config {
	cfg := smallCfg()
	cfg.Shards = 2
	cfg.Recipients = 4
	return cfg
}

func TestShardedValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Shards = -1 },
		func(c *Config) { c.Recipients = -1 },
		func(c *Config) { c.Shards = 0; c.Recipients = 3 },
		func(c *Config) { c.Shards = 1; c.AttackRecipient = RecipientAddress(0) },
	}
	for i, mutate := range bad {
		c := shardedCfg()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
	if err := shardedCfg().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigTargetShard(t *testing.T) {
	cfg := shardedCfg()
	if got := cfg.TargetShard(); got != -1 {
		t.Errorf("untargeted TargetShard = %d, want -1", got)
	}
	cfg.AttackRecipient = RecipientAddress(0)
	got := cfg.TargetShard()
	if got < 0 || got >= cfg.Shards {
		t.Errorf("TargetShard = %d outside [0, %d)", got, cfg.Shards)
	}
}

func TestShardedOnlineCleanDeployment(t *testing.T) {
	g := testGen(t)
	cfg := shardedCfg()
	res, err := RunOnline(g, cfg, stats.NewRNG(31))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Weeks) != cfg.Weeks {
		t.Fatalf("%d weeks", len(res.Weeks))
	}
	for _, w := range res.Weeks {
		if len(w.ByShard) != cfg.Shards {
			t.Fatalf("week %d: per-shard breakdown has %d entries, want %d",
				w.Week, len(w.ByShard), cfg.Shards)
		}
		// The per-shard confusions partition the combined one.
		var sum int
		for sh, conf := range w.ByShard {
			sum += conf.NumHam() + conf.NumSpam()
			if conf.NumHam()+conf.NumSpam() == 0 {
				t.Errorf("week %d: shard %d delivered nothing (population not spread)", w.Week, sh)
			}
		}
		if total := w.Delivered.NumHam() + w.Delivered.NumSpam(); sum != total || total != cfg.MessagesPerWeek {
			t.Errorf("week %d: shard verdicts %d, combined %d, want %d", w.Week, sum, total, cfg.MessagesPerWeek)
		}
		if loss := w.Delivered.HamMisclassifiedRate(); loss > 0.1 {
			t.Errorf("week %d: clean sharded deployment loses %v of ham at delivery", w.Week, loss)
		}
		// One fleet swap per completed week, as in the single-engine
		// deployment.
		if w.Generation != uint64(w.Week) {
			t.Errorf("week %d: combined generation %d, want %d", w.Week, w.Generation, w.Week)
		}
	}
	want := cfg.InitialMailStore + cfg.Weeks*cfg.MessagesPerWeek
	if got := res.Weeks[len(res.Weeks)-1].MailStoreSize; got != want {
		t.Errorf("final store = %d, want %d", got, want)
	}
	if !strings.Contains(res.Render(), "per-shard at-delivery ham loss") {
		t.Error("render missing the per-shard table")
	}
}

func TestShardedTargetedPoisonIsolatesDamage(t *testing.T) {
	// All attack mail is addressed to user 0, so only user 0's shard
	// trains on the poison: its at-delivery ham loss must collapse
	// while every other shard keeps serving clean verdicts — the
	// blast-radius containment sharding buys, and the sharded
	// rendition of the paper's §4.3 targeted setting.
	g := testGen(t)
	cfg := shardedCfg()
	cfg.Attack = core.NewDictionaryAttack(lexicon.Optimal(g.Universe()))
	cfg.AttackRecipient = RecipientAddress(0)
	res, err := RunOnline(g, cfg, stats.NewRNG(32))
	if err != nil {
		t.Fatal(err)
	}
	target := cfg.TargetShard()
	last := res.Weeks[len(res.Weeks)-1]
	if last.AttackArrived == 0 {
		t.Fatal("no attack arrivals recorded")
	}
	targetLoss := last.ByShard[target].HamMisclassifiedRate()
	if targetLoss < 0.3 {
		t.Errorf("target shard %d final ham loss only %v despite concentrated poison", target, targetLoss)
	}
	for sh, conf := range last.ByShard {
		if sh == target {
			continue
		}
		if loss := conf.HamMisclassifiedRate(); loss > 0.1 {
			t.Errorf("shard %d suffered %v collateral ham loss from a shard-%d-targeted attack",
				sh, loss, target)
		}
	}
	if !strings.Contains(res.Render(), "aimed at "+cfg.AttackRecipient) {
		t.Error("render does not name the targeted recipient")
	}
}

func TestShardedSpreadAttackHitsEveryShard(t *testing.T) {
	// Untargeted attack mail spreads over the population like organic
	// mail, so every shard's store is poisoned — the contrast case to
	// the targeted run above.
	g := testGen(t)
	cfg := shardedCfg()
	cfg.Attack = core.NewDictionaryAttack(lexicon.Optimal(g.Universe()))
	res, err := RunOnline(g, cfg, stats.NewRNG(33))
	if err != nil {
		t.Fatal(err)
	}
	last := res.Weeks[len(res.Weeks)-1]
	for sh, conf := range last.ByShard {
		if loss := conf.HamMisclassifiedRate(); loss < 0.2 {
			t.Errorf("shard %d final ham loss %v under a spread attack; expected broad damage", sh, loss)
		}
	}
}

func TestShardedIncrementalMatchesPeriodic(t *testing.T) {
	// Per-shard clone-and-extend must reproduce the per-shard full
	// rebuild verdict for verdict, as in the single-engine mode.
	g := testGen(t)
	cfg := shardedCfg()
	cfg.Weeks = 3
	cfg.Attack = core.NewDictionaryAttack(lexicon.Optimal(g.Universe()))

	periodic := cfg
	periodic.Retraining = RetrainPeriodic
	a, err := RunOnline(g, periodic, stats.NewRNG(34))
	if err != nil {
		t.Fatal(err)
	}
	incremental := cfg
	incremental.Retraining = RetrainIncremental
	b, err := RunOnline(g, incremental, stats.NewRNG(34))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Weeks {
		if !reflect.DeepEqual(a.Weeks[i], b.Weeks[i]) {
			t.Fatalf("week %d differs: periodic %+v vs incremental %+v", i+1, a.Weeks[i], b.Weeks[i])
		}
	}
}

func TestShardedDeterminism(t *testing.T) {
	// The sharded trace — including the concurrently built per-shard
	// retrains and the stamped recipients — must not leak goroutine
	// scheduling into the results.
	g := testGen(t)
	cfg := shardedCfg()
	cfg.Attack = core.NewDictionaryAttack(lexicon.Optimal(g.Universe()))
	cfg.AttackRecipient = RecipientAddress(1)
	cfg.UseRONI = true
	cfg.RetrainLag = 17
	a, err := RunOnline(g, cfg, stats.NewRNG(35))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOnline(g, cfg, stats.NewRNG(35))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Weeks {
		if !reflect.DeepEqual(a.Weeks[i], b.Weeks[i]) {
			t.Fatalf("week %d differs across identical runs: %+v vs %+v", i+1, a.Weeks[i], b.Weeks[i])
		}
	}
}
