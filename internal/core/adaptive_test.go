package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/lexicon"
	"repro/internal/stats"
	"repro/internal/textgen"

	// Register the stock backends for the refit conformance loop.
	_ "repro/internal/graham"
	_ "repro/internal/sbayes"
)

func adaptiveFixture(t *testing.T) *AdaptiveAttacker {
	t.Helper()
	u := textgen.MustUniverse(textgen.UniverseConfig{
		CommonWords: 40, StandardWords: 200, FormalWords: 60,
		ColloquialWords: 60, SpamWords: 40, PersonalWords: 100,
	})
	a, err := NewAdaptiveAttacker(NewDictionaryAttack(lexicon.Optimal(u)), DefaultAdaptiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAdaptiveAttackerDoseController(t *testing.T) {
	a := adaptiveFixture(t)
	base := 0.02
	if got := a.Dose(base); got != base {
		t.Fatalf("initial dose %v, want the base %v", got, base)
	}
	// High acceptance doubles, clamped at MaxBoost.
	for i := 0; i < 5; i++ {
		a.ObserveFeedback(100, 100)
	}
	if got := a.Dose(base); got != base*4 {
		t.Errorf("after sustained acceptance dose %v, want base*MaxBoost %v", got, base*4)
	}
	// High rejection halves, clamped at MinBoost.
	for i := 0; i < 10; i++ {
		a.ObserveFeedback(100, 0)
	}
	if got := a.Dose(base); got != base*0.125 {
		t.Errorf("after sustained rejection dose %v, want base*MinBoost %v", got, base*0.125)
	}
	// Mid-band acceptance holds the dose, and zero sent is no feedback.
	before := a.Boost()
	a.ObserveFeedback(100, 50)
	a.ObserveFeedback(0, 0)
	if a.Boost() != before {
		t.Errorf("mid-band/no-op feedback moved the boost %v -> %v", before, a.Boost())
	}
	// The dose never reaches AttackSize's forbidden 1.0.
	for i := 0; i < 10; i++ {
		a.ObserveFeedback(10, 10)
	}
	if got := a.Dose(0.5); got >= 1 {
		t.Errorf("dose %v reached 1", got)
	}
}

func TestAdaptiveAttackerDelegates(t *testing.T) {
	a := adaptiveFixture(t)
	if a.Name() != "adaptive("+a.Inner().Name()+")" {
		t.Errorf("name %q", a.Name())
	}
	if a.Taxonomy() != a.Inner().Taxonomy() {
		t.Errorf("taxonomy %v differs from inner %v", a.Taxonomy(), a.Inner().Taxonomy())
	}
	if m := a.BuildAttack(stats.NewRNG(1)); m == nil || m.Body == "" {
		t.Error("BuildAttack did not delegate")
	}
	// The capability is what the scenario's validation checks for.
	var _ FeedbackAttacker = a
}

func TestAdaptiveConfigValidate(t *testing.T) {
	if err := DefaultAdaptiveConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*AdaptiveConfig){
		func(c *AdaptiveConfig) { c.HighWater = 0 },
		func(c *AdaptiveConfig) { c.LowWater = c.HighWater },
		func(c *AdaptiveConfig) { c.Grow = 0.5 },
		func(c *AdaptiveConfig) { c.Shrink = 0 },
		func(c *AdaptiveConfig) { c.MinBoost = 0 },
		func(c *AdaptiveConfig) { c.MaxBoost = 0.5 },
	}
	for i, mutate := range bad {
		c := DefaultAdaptiveConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
	if _, err := NewAdaptiveAttacker(nil, DefaultAdaptiveConfig()); err == nil {
		t.Error("nil inner attack accepted")
	}
}

func TestDynamicThresholdRefit(t *testing.T) {
	u := textgen.MustUniverse(textgen.UniverseConfig{
		CommonWords: 40, StandardWords: 200, FormalWords: 60,
		ColloquialWords: 60, SpamWords: 40, PersonalWords: 100,
	})
	g := textgen.MustNew(u, textgen.DefaultConfig())
	train := g.Corpus(stats.NewRNG(1), 150, 150)
	calib := g.Corpus(stats.NewRNG(2), 50, 50)

	d := DynamicThreshold{Utility: 0.10}
	for _, backend := range []string{"sbayes", "graham"} {
		t.Run(backend, func(t *testing.T) {
			b, err := engine.Lookup(backend)
			if err != nil {
				t.Fatal(err)
			}
			clf := b.New()
			for _, e := range train.Examples {
				clf.Learn(e.Msg, e.Spam)
			}
			t0, t1, err := d.Refit(clf, calib)
			if err != nil {
				t.Fatal(err)
			}
			if t0 < 0 || t1 > 1 || t0 > t1 {
				t.Errorf("refit thresholds (%v, %v) malformed", t0, t1)
			}
			// The calibration classes separate, so the refit cutoffs keep
			// separating them.
			conf := 0
			for _, e := range calib.Examples {
				label, _ := clf.Classify(e.Msg)
				if (e.Spam && label.String() == "spam") || (!e.Spam && label.String() == "ham") {
					conf++
				}
			}
			if rate := float64(conf) / float64(calib.Len()); rate < 0.8 {
				t.Errorf("post-refit accuracy %v on the calibration set", rate)
			}
		})
	}
}
