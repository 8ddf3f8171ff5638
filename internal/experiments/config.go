// Package experiments contains one driver per exhibit of the paper's
// evaluation (Table 1, Figures 1–5, and the §5.1 RONI statistics plus
// the §4.2 token-ratio check). Each driver returns a typed result and
// renders the same rows/series the paper reports; cmd/subvert and the
// top-level benchmarks are thin wrappers around this package.
//
// Every driver takes an Env (shared corpus, lexicons, generator) and
// is deterministic for a given Config.Seed.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/textgen"
)

// Config collects every experimental parameter. FullScale reproduces
// Table 1; SmallScale is a fast configuration with the same structure
// for tests and benchmarks.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// Universe and Gen configure the synthetic data substitution.
	Universe textgen.UniverseConfig
	Gen      textgen.Config

	// PoolHam and PoolSpam size the generated source corpus (the
	// TREC-2005 stand-in) per class.
	PoolHam  int
	PoolSpam int

	// UsenetStreamTokens and UsenetK configure the Usenet lexicon:
	// top UsenetK words of a UsenetStreamTokens-token sample.
	UsenetStreamTokens int
	UsenetK            int

	// Dictionary attack sweep (Figure 1 and Figure 5).
	TrainSize      int       // training messages per fold (10,000)
	Folds          int       // cross-validation folds (10)
	SpamPrevalence float64   // training spam fraction (0.5)
	Fractions      []float64 // attack fractions of the training set

	// Focused attack (Figures 2–4).
	FocusedInbox   int       // clean inbox size (5,000)
	FocusedTargets int       // target emails (20)
	FocusedReps    int       // repetitions with fresh inboxes (5)
	FocusedCount   int       // attack emails for Figure 2 (300)
	GuessProbs     []float64 // Figure 2 knowledge sweep
	VolumeSteps    []float64 // Figure 3 attack fractions
	FixedGuessProb float64   // Figures 3–4 (0.5)

	// RONI defense (§5.1).
	RONI           core.RONIConfig
	RONINonAttack  int // non-attack spam candidates (120)
	RONIAttackReps int // repetitions per attack variant (15)

	// Dynamic threshold defense (Figure 5).
	ThresholdUtilities []float64 // 0.05 and 0.10
	ThresholdFractions []float64 // attack fractions
	ThresholdFolds     int       // folds (5)

	// Extension: informed (constrained-optimal) attack, §3.4 future
	// work. InformedBudgets are the attack-dictionary sizes swept;
	// InformedSample is how many ham messages the attacker observes;
	// InformedFraction is the attack fraction used in the comparison.
	InformedBudgets  []int
	InformedSample   int
	InformedFraction float64

	// Extension: pseudospam (ham-labeled) attack, §2.2 remark.
	// PseudospamFractions sweeps the attack volume.
	PseudospamFractions []float64

	// Workers bounds fold-level parallelism (0 = all folds at once).
	Workers int
}

// FullScale returns the paper's parameters (Table 1).
func FullScale() Config {
	return Config{
		Seed:     20080415, // LEET'08 workshop date
		Universe: textgen.DefaultUniverseConfig(),
		Gen:      textgen.DefaultConfig(),

		PoolHam:  6500,
		PoolSpam: 6500,

		UsenetStreamTokens: 20_000_000,
		UsenetK:            90_000,

		TrainSize:      10_000,
		Folds:          10,
		SpamPrevalence: 0.5,
		Fractions:      []float64{0.001, 0.005, 0.01, 0.02, 0.05, 0.10},

		FocusedInbox:   5_000,
		FocusedTargets: 20,
		FocusedReps:    5,
		FocusedCount:   300,
		GuessProbs:     []float64{0.1, 0.3, 0.5, 0.9},
		VolumeSteps:    volumeSteps(),
		FixedGuessProb: 0.5,

		RONI:           core.DefaultRONIConfig(),
		RONINonAttack:  120,
		RONIAttackReps: 15,

		ThresholdUtilities: []float64{0.05, 0.10},
		ThresholdFractions: []float64{0.001, 0.01, 0.05, 0.10},
		ThresholdFolds:     5,

		InformedBudgets:  []int{5000, 10000, 25000, 50000, 90000},
		InformedSample:   1000,
		InformedFraction: 0.01,

		PseudospamFractions: []float64{0.001, 0.005, 0.01, 0.02, 0.05},

		Workers: 0,
	}
}

// volumeSteps is the Figure 3 sweep: attack fractions from 0.4% to
// 10% in 25 steps (Table 1 lists 25 increments for the focused
// volume sweep; the figure's x-axis runs 0–10% control).
func volumeSteps() []float64 {
	steps := make([]float64, 0, 25)
	for i := 1; i <= 25; i++ {
		steps = append(steps, 0.10*float64(i)/25)
	}
	return steps
}

// SmallScale returns a structurally identical configuration sized for
// unit tests and benchmarks (runs in seconds).
func SmallScale() Config {
	cfg := FullScale()
	cfg.Universe = textgen.SmallUniverseConfig()
	cfg.PoolHam, cfg.PoolSpam = 500, 500
	cfg.UsenetStreamTokens = 300_000
	cfg.UsenetK = 900
	cfg.TrainSize = 400
	cfg.Folds = 4
	cfg.Fractions = []float64{0.01, 0.05, 0.10}
	cfg.FocusedInbox = 300
	cfg.FocusedTargets = 6
	cfg.FocusedReps = 2
	cfg.FocusedCount = 40
	cfg.VolumeSteps = []float64{0.01, 0.02, 0.05, 0.10, 0.20}
	cfg.RONINonAttack = 20
	cfg.RONIAttackReps = 3
	cfg.ThresholdFractions = []float64{0.01, 0.10}
	cfg.ThresholdFolds = 2
	cfg.InformedBudgets = []int{100, 300, 600, 900}
	cfg.InformedSample = 150
	cfg.InformedFraction = 0.05
	cfg.PseudospamFractions = []float64{0.01, 0.05, 0.10}
	return cfg
}

// Validate checks configuration consistency.
func (c Config) Validate() error {
	if err := c.Universe.Validate(); err != nil {
		return err
	}
	if err := c.Gen.Validate(); err != nil {
		return err
	}
	if err := c.RONI.Validate(); err != nil {
		return err
	}
	switch {
	case c.PoolHam < 1 || c.PoolSpam < 1:
		return fmt.Errorf("experiments: pool sizes %d/%d", c.PoolHam, c.PoolSpam)
	case c.UsenetStreamTokens < 1 || c.UsenetK < 1:
		return fmt.Errorf("experiments: usenet config %d/%d", c.UsenetStreamTokens, c.UsenetK)
	case c.TrainSize < 2 || c.Folds < 2:
		return fmt.Errorf("experiments: train size %d, folds %d", c.TrainSize, c.Folds)
	case c.SpamPrevalence <= 0 || c.SpamPrevalence >= 1:
		return fmt.Errorf("experiments: prevalence %v", c.SpamPrevalence)
	case len(c.Fractions) == 0 || len(c.GuessProbs) == 0 || len(c.VolumeSteps) == 0:
		return fmt.Errorf("experiments: empty sweep")
	case c.FocusedInbox < 10 || c.FocusedTargets < 1 || c.FocusedReps < 1 || c.FocusedCount < 1:
		return fmt.Errorf("experiments: focused config")
	case c.FixedGuessProb <= 0 || c.FixedGuessProb > 1:
		return fmt.Errorf("experiments: fixed guess probability %v", c.FixedGuessProb)
	case c.RONINonAttack < 1 || c.RONIAttackReps < 1:
		return fmt.Errorf("experiments: RONI candidates")
	case len(c.ThresholdUtilities) == 0 || len(c.ThresholdFractions) == 0 || c.ThresholdFolds < 2:
		return fmt.Errorf("experiments: threshold config")
	case len(c.InformedBudgets) == 0 || c.InformedSample < 1:
		return fmt.Errorf("experiments: informed attack config")
	case c.InformedFraction <= 0 || c.InformedFraction >= 1:
		return fmt.Errorf("experiments: informed attack fraction %v", c.InformedFraction)
	case len(c.PseudospamFractions) == 0:
		return fmt.Errorf("experiments: pseudospam config")
	}
	for _, k := range c.InformedBudgets {
		if k < 1 {
			return fmt.Errorf("experiments: informed budget %d", k)
		}
	}
	for _, f := range c.PseudospamFractions {
		if f <= 0 || f >= 1 {
			return fmt.Errorf("experiments: pseudospam fraction %v", f)
		}
	}
	for _, f := range append(append([]float64{}, c.Fractions...), c.ThresholdFractions...) {
		if f <= 0 || f >= 1 {
			return fmt.Errorf("experiments: attack fraction %v", f)
		}
	}
	for _, p := range c.GuessProbs {
		if p <= 0 || p > 1 {
			return fmt.Errorf("experiments: guess probability %v", p)
		}
	}
	return nil
}

// InboxSize returns the working-set size for the dictionary-attack
// cross-validation: K-fold CV over this many messages trains on
// TrainSize per fold.
func (c Config) InboxSize() int {
	return c.TrainSize * c.Folds / (c.Folds - 1)
}
