package repro

import (
	"context"
	"path/filepath"
	"testing"
)

// TestFacadeLexicons exercises the lexicon constructors through the
// public API.
func TestFacadeLexicons(t *testing.T) {
	cfg := SmallScaleConfig()
	g, err := NewGeneratorWith(cfg.Universe, cfg.Gen)
	if err != nil {
		t.Fatal(err)
	}
	u := g.Universe()
	asp := AspellLexicon(u)
	opt := OptimalLexicon(u)
	us := UsenetLexicon(g, NewRNG(5), 200000, 900)
	if asp.Len() == 0 || opt.Len() != u.Size() || us.Len() == 0 {
		t.Fatalf("lexicon sizes: aspell=%d optimal=%d usenet=%d", asp.Len(), opt.Len(), us.Len())
	}
	if got := us.Overlap(asp); got == 0 || got > asp.Len() {
		t.Errorf("overlap = %d", got)
	}
}

// TestFacadeSharded drives the sharded serving layer and the sharded
// online deployment through the public API.
func TestFacadeSharded(t *testing.T) {
	cfg := SmallScaleConfig()
	g, err := NewGeneratorWith(cfg.Universe, cfg.Gen)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(41)
	train := g.Corpus(rng, 120, 120)

	clfs := make([]Classifier, 3)
	for i := range clfs {
		clf, err := NewClassifier("sbayes")
		if err != nil {
			t.Fatal(err)
		}
		TrainClassifier(clf, train)
		clfs[i] = clf
	}
	sh := NewSharded(clfs, EngineConfig{Name: "facade", Workers: 2})
	msgs := g.Corpus(rng, 30, 30)
	results, err := sh.ClassifyBatch(context.Background(), msgs.Ham())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(msgs.Ham()) {
		t.Fatalf("%d results for %d messages", len(results), len(msgs.Ham()))
	}
	st := sh.Stats()
	if st.Classified != uint64(len(results)) || len(st.Shards) != 3 {
		t.Fatalf("sharded stats: %+v", st)
	}
	var byLabel uint64
	for _, n := range st.ByLabel {
		byLabel += n
	}
	if byLabel != st.Classified {
		t.Errorf("combined sum(ByLabel) = %d != Classified %d", byLabel, st.Classified)
	}
	if sh.ShardFor(msgs.Ham()[0]) != int(RecipientShardKey(msgs.Ham()[0])%3) {
		t.Error("facade routing disagrees with RecipientShardKey")
	}

	dcfg := DefaultDeploymentConfig()
	dcfg.Weeks = 2
	dcfg.InitialMailStore = 200
	dcfg.MessagesPerWeek = 100
	dcfg.TestSize = 50
	dcfg.Shards = 2
	res, err := RunOnlineDeployment(g, dcfg, NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Weeks) != 2 || len(res.Weeks[0].ByShard) != 2 {
		t.Fatalf("sharded deployment trace: %+v", res.Weeks)
	}
}

// TestFacadeCorpusPersistence round-trips a corpus through mbox pairs
// via the facade.
func TestFacadeCorpusPersistence(t *testing.T) {
	cfg := SmallScaleConfig()
	g, err := NewGeneratorWith(cfg.Universe, cfg.Gen)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Corpus(NewRNG(6), 8, 8)
	dir := filepath.Join(t.TempDir(), "corpus")
	if err := c.SaveMboxPair(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMboxPair(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumHam() != 8 || got.NumSpam() != 8 {
		t.Errorf("round trip = %d/%d", got.NumHam(), got.NumSpam())
	}
}

// TestFacadeExperimentEnv builds an environment and runs the cheapest
// driver through the facade types.
func TestFacadeExperimentEnv(t *testing.T) {
	env, err := NewExperimentEnv(SmallScaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if env.Pool.Len() == 0 || env.Aspell.Len() == 0 {
		t.Error("environment incomplete")
	}
}

// TestFacadeDynamicThreshold exercises the threshold defense type
// alias end to end.
func TestFacadeDynamicThreshold(t *testing.T) {
	cfg := SmallScaleConfig()
	g, err := NewGeneratorWith(cfg.Universe, cfg.Gen)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(7)
	train := g.Corpus(rng, 200, 200)
	d := DynamicThreshold{Utility: 0.10}
	f, t0, t1, err := d.Train(train, DefaultFilterOptions(), nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if t0 > t1 {
		t.Errorf("thresholds inverted: %v > %v", t0, t1)
	}
	if conf := Evaluate(f, g.Corpus(rng, 50, 50)); conf.Accuracy() < 0.8 {
		t.Errorf("defended accuracy %v", conf.Accuracy())
	}
}

// TestFacadeBackendsAndEngine exercises the interface-first API end
// to end: registry lookup, generic training, batch scoring, and the
// backend-generic RONI constructor.
func TestFacadeBackendsAndEngine(t *testing.T) {
	cfg := SmallScaleConfig()
	g, err := NewGeneratorWith(cfg.Universe, cfg.Gen)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(8)
	train := g.Corpus(rng, 150, 150)
	test := g.Corpus(rng, 40, 40)

	names := Backends()
	if len(names) < 2 {
		t.Fatalf("backends = %v", names)
	}
	for _, name := range names {
		clf, err := NewClassifier(name)
		if err != nil {
			t.Fatal(err)
		}
		TrainClassifier(clf, train)
		if conf := EvaluateBatch(clf, test, 4); conf.Accuracy() < 0.8 {
			t.Errorf("%s accuracy %v", name, conf.Accuracy())
		}
		eng := NewEngine(clf, EngineConfig{Name: name, Workers: 3})
		msgs := test.Ham()
		results, err := eng.ClassifyBatch(context.Background(), msgs)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(msgs) {
			t.Fatalf("%s: %d results for %d messages", name, len(results), len(msgs))
		}
		if stats := eng.Stats(); stats.Classified != uint64(len(msgs)) {
			t.Errorf("%s: stats.Classified = %d", name, stats.Classified)
		}
	}

	// RONI over the graham backend through the facade.
	backend, err := LookupBackend("graham")
	if err != nil {
		t.Fatal(err)
	}
	roni, err := NewRONIBackend(DefaultRONIConfig(), train, backend.New, NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if impact := roni.MeasureImpact(g.HamMessage(rng), false); impact.HamAsHamDelta < 0 {
		t.Logf("ham query impact %v", impact)
	}
}

// TestFacadeTaxonomy checks the re-exported attack metadata.
func TestFacadeTaxonomy(t *testing.T) {
	cfg := SmallScaleConfig()
	g, err := NewGeneratorWith(cfg.Universe, cfg.Gen)
	if err != nil {
		t.Fatal(err)
	}
	var a Attacker = NewOptimalAttack(g.Universe())
	if a.Taxonomy().String() != "Causative Availability Indiscriminate" {
		t.Errorf("taxonomy = %v", a.Taxonomy())
	}
	if a.Name() != "optimal" {
		t.Errorf("name = %q", a.Name())
	}
}
