package repro

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/textgen"
)

// TestFacadeEndToEnd exercises the public API exactly as the README
// quickstart does: generate data, train, classify, attack, defend.
func TestFacadeEndToEnd(t *testing.T) {
	g, err := NewGeneratorWith(textgen.SmallUniverseConfig(), defaultGenCfg())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(1)
	train := g.Corpus(r, 300, 300)

	f := TrainFilter(train, DefaultFilterOptions(), nil)
	conf := Evaluate(f, train)
	if conf.Accuracy() < 0.9 {
		t.Fatalf("training-set accuracy %v", conf.Accuracy())
	}

	// A fresh ham message classifies ham.
	target := g.HamMessage(r)
	if label, _ := f.Classify(target); label != Ham {
		t.Fatalf("fresh ham classified %v", label)
	}

	// Dictionary attack breaks the filter.
	attack := NewOptimalAttack(g.Universe())
	poisoned := f.Clone()
	poisoned.LearnWeighted(attack.BuildAttack(r), true, AttackSize(0.05, train.Len()))
	if label, _ := poisoned.Classify(target); label == Ham {
		t.Error("ham survived the optimal dictionary attack")
	}

	// Focused attack blocks the target.
	fa, err := NewFocusedAttack(target, 0.9, train.Spam())
	if err != nil {
		t.Fatal(err)
	}
	focused := f.Clone()
	focused.LearnWeighted(fa.BuildAttack(r), true, 60)
	if label, _ := focused.Classify(target); label == Ham {
		t.Error("target survived the focused attack")
	}

	// RONI rejects the attack email.
	roni, err := NewRONI(DefaultRONIConfig(), train, DefaultFilterOptions(), nil, r)
	if err != nil {
		t.Fatal(err)
	}
	if !roni.ShouldReject(attack.BuildAttack(r), true) {
		t.Error("RONI accepted the dictionary attack email")
	}

	// Filter persistence round-trips through the facade.
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFilter(&buf, DefaultFilterOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Score(target) != f.Score(target) {
		t.Error("persistence changed scores")
	}
}

func TestFacadeMessageAndMbox(t *testing.T) {
	m, err := ParseMessage(strings.NewReader("Subject: hello\n\nworld\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Subject() != "hello" {
		t.Fatalf("subject %q", m.Subject())
	}
	var buf bytes.Buffer
	w := NewMboxWriter(&buf)
	if err := w.WriteMessage(m); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	msgs, err := NewMboxReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil || len(msgs) != 1 {
		t.Fatalf("mbox round trip: %v, %d messages", err, len(msgs))
	}
}

func TestFacadeCorpusAndTokenizer(t *testing.T) {
	ham := []*Message{{Body: "meeting agenda minutes\n"}}
	spam := []*Message{{Body: "winner lottery claim\n"}}
	c := NewCorpus(ham, spam)
	if c.Len() != 2 || c.NumSpam() != 1 {
		t.Fatalf("corpus %d/%d", c.Len(), c.NumSpam())
	}
	if ts := DefaultTokenizer().Stream(ham[0]); ts.Len() != 3 || ts.At(0) != "meeting" {
		t.Fatalf("tokens %v", ts.Tokens())
	}
	opts := DefaultTokenizerOptions()
	opts.Headers = false
	if NewTokenizer(opts).Options().Headers {
		t.Error("tokenizer options not applied")
	}
}

func TestFacadeExperimentConfigs(t *testing.T) {
	if err := FullScaleConfig().Validate(); err != nil {
		t.Error(err)
	}
	if err := SmallScaleConfig().Validate(); err != nil {
		t.Error(err)
	}
}

// defaultGenCfg mirrors textgen.DefaultConfig through the facade
// (kept here so the test exercises only public API).
func defaultGenCfg() GeneratorConfig {
	cfg := SmallScaleConfig()
	return cfg.Gen
}
