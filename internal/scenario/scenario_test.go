package scenario

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lexicon"
	"repro/internal/stats"
	"repro/internal/textgen"
)

func testGen(t testing.TB) *textgen.Generator {
	t.Helper()
	u := textgen.MustUniverse(textgen.SmallUniverseConfig())
	return textgen.MustNew(u, textgen.DefaultConfig())
}

// smallCfg scales DefaultConfig down for tests.
func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.Weeks = 4
	cfg.InitialMailStore = 400
	cfg.MessagesPerWeek = 200
	cfg.TestSize = 100
	cfg.AttackStartWeek = 2
	cfg.AttackFraction = 0.05
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Weeks = 0 },
		func(c *Config) { c.InitialMailStore = 5 },
		func(c *Config) { c.MessagesPerWeek = 0 },
		func(c *Config) { c.SpamPrevalence = 1 },
		func(c *Config) { c.TestSize = 1 },
		func(c *Config) { c.UseRONI = true; c.RONI.Trials = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
	// Attack-specific checks.
	g := testGen(t)
	c := DefaultConfig()
	c.Attack = core.NewOptimalAttack(g.Universe())
	c.AttackFraction = 0
	if err := c.Validate(); err == nil {
		t.Error("zero attack fraction validated")
	}
}

func TestCleanDeploymentStaysAccurate(t *testing.T) {
	g := testGen(t)
	cfg := smallCfg()
	res, err := Run(g, cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Weeks) != cfg.Weeks {
		t.Fatalf("%d weeks", len(res.Weeks))
	}
	for _, w := range res.Weeks {
		if loss := w.Confusion.HamMisclassifiedRate(); loss > 0.1 {
			t.Errorf("week %d: clean deployment loses %v of ham", w.Week, loss)
		}
		if w.AttackArrived != 0 || w.AttackRejected != 0 {
			t.Errorf("week %d: phantom attack activity", w.Week)
		}
	}
	// The store grows by the weekly volume.
	want := cfg.InitialMailStore + cfg.Weeks*cfg.MessagesPerWeek
	if got := res.Weeks[len(res.Weeks)-1].MailStoreSize; got != want {
		t.Errorf("final store = %d, want %d", got, want)
	}
}

func TestAttackedDeploymentDegrades(t *testing.T) {
	g := testGen(t)
	cfg := smallCfg()
	cfg.Attack = core.NewDictionaryAttack(lexicon.Optimal(g.Universe()))
	res, err := Run(g, cfg, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	// Before the attack starts, the filter works.
	pre := res.Weeks[cfg.AttackStartWeek-2]
	if loss := pre.Confusion.HamMisclassifiedRate(); loss > 0.1 {
		t.Errorf("pre-attack week loses %v", loss)
	}
	// After the attack has run, the filter is badly degraded.
	if res.FinalHamLoss() < 0.5 {
		t.Errorf("final ham loss only %v despite sustained attack", res.FinalHamLoss())
	}
	// Attack volume reported.
	last := res.Weeks[len(res.Weeks)-1]
	if last.AttackArrived == 0 {
		t.Error("no attack arrivals recorded")
	}
}

func TestRONIScrubbingSavesDeployment(t *testing.T) {
	g := testGen(t)
	cfg := smallCfg()
	cfg.Attack = core.NewDictionaryAttack(lexicon.Optimal(g.Universe()))
	cfg.UseRONI = true
	res, err := Run(g, cfg, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	// The defense rejects the attack emails...
	totalArrived, totalRejected := 0, 0
	for _, w := range res.Weeks {
		totalArrived += w.AttackArrived
		totalRejected += w.AttackRejected
	}
	if totalArrived == 0 {
		t.Fatal("no attack traffic simulated")
	}
	if totalRejected < totalArrived {
		t.Errorf("RONI rejected %d of %d attack emails", totalRejected, totalArrived)
	}
	// ...and the filter stays usable.
	if res.FinalHamLoss() > 0.15 {
		t.Errorf("final ham loss %v despite RONI", res.FinalHamLoss())
	}
	// Organic rejections stay rare.
	organic := 0
	for _, w := range res.Weeks {
		organic += w.OrganicRejected
	}
	if organic > cfg.Weeks*cfg.MessagesPerWeek/20 {
		t.Errorf("RONI rejected %d organic messages", organic)
	}
}

func TestUnknownBackendRejected(t *testing.T) {
	cfg := smallCfg()
	cfg.Backend = "nonesuch"
	if err := cfg.Validate(); err == nil {
		t.Error("unknown backend validated")
	}
	g := testGen(t)
	if _, err := Run(g, cfg, stats.NewRNG(9)); err == nil {
		t.Error("Run accepted unknown backend")
	}
}

func TestGrahamBackendDeploymentUnderDictionaryAttack(t *testing.T) {
	// The same deployment, the same attack stream, a different
	// learner: the dictionary attack transfers to the Graham baseline
	// once the dose is high enough (its clamps and 15-token cap need
	// roughly an order of magnitude more volume than SpamBayes).
	g := testGen(t)
	cfg := smallCfg()
	cfg.Backend = "graham"
	cfg.Attack = core.NewDictionaryAttack(lexicon.Optimal(g.Universe()))
	cfg.AttackFraction = 0.5
	res, err := Run(g, cfg, stats.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	// Before the attack starts, the Graham filter works.
	pre := res.Weeks[cfg.AttackStartWeek-2]
	if loss := pre.Confusion.HamMisclassifiedRate(); loss > 0.1 {
		t.Errorf("pre-attack week loses %v of ham", loss)
	}
	// Graham's verdict is binary: no unsure cells, ever.
	for _, w := range res.Weeks {
		if w.Confusion.HamAsUnsure != 0 || w.Confusion.SpamAsUnsure != 0 {
			t.Errorf("week %d: graham produced unsure verdicts: %+v", w.Week, w.Confusion)
		}
	}
	// After the sustained high-dose attack, the filter is degraded.
	if res.FinalHamLoss() < 0.25 {
		t.Errorf("final ham loss only %v; dictionary attack did not transfer to graham", res.FinalHamLoss())
	}
	if !strings.Contains(res.Render(), "graham backend") {
		t.Error("render does not name the backend")
	}
}

func TestScenarioDeterminism(t *testing.T) {
	g := testGen(t)
	cfg := smallCfg()
	cfg.Weeks = 2
	a, err := Run(g, cfg, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, cfg, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Weeks {
		if a.Weeks[i] != b.Weeks[i] {
			t.Fatalf("week %d differs: %+v vs %+v", i+1, a.Weeks[i], b.Weeks[i])
		}
	}
}

func TestRenderContainsTrace(t *testing.T) {
	g := testGen(t)
	cfg := smallCfg()
	cfg.Weeks = 2
	res, err := Run(g, cfg, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	for _, want := range []string{"Deployment simulation", "week", "ham lost", "no attack", "no defense"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
