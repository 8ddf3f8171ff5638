package core

import (
	"strings"
	"testing"

	"repro/internal/mail"
	"repro/internal/sbayes"
	"repro/internal/stats"
	"repro/internal/tokenize"
)

func TestInformedAttackValidation(t *testing.T) {
	if _, err := NewInformedAttack(nil, 10); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := NewInformedAttack([]*mail.Message{{Body: "abc def\n"}}, 0); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestInformedAttackPicksFrequentWords(t *testing.T) {
	sample := []*mail.Message{
		{Body: "common rare1\n"},
		{Body: "common middle\n"},
		{Body: "common middle rare2\n"},
	}
	a, err := NewInformedAttack(sample, 2)
	if err != nil {
		t.Fatal(err)
	}
	words := a.Words()
	if len(words) != 2 || words[0] != "common" || words[1] != "middle" {
		t.Errorf("words = %v", words)
	}
	if a.Budget() != 2 {
		t.Errorf("budget = %d", a.Budget())
	}
	if !strings.Contains(a.Name(), "informed") {
		t.Errorf("name = %q", a.Name())
	}
	if a.Taxonomy() != (Taxonomy{Causative, Availability, Indiscriminate}) {
		t.Errorf("taxonomy = %v", a.Taxonomy())
	}
}

func TestInformedAttackBudgetClamped(t *testing.T) {
	a, err := NewInformedAttack([]*mail.Message{{Body: "one two three\n"}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a.Budget() != 3 {
		t.Errorf("clamped budget = %d, want 3", a.Budget())
	}
}

func TestInformedAttackDeterministicTieBreak(t *testing.T) {
	sample := []*mail.Message{{Body: "zzz aaa mmm\n"}}
	a, _ := NewInformedAttack(sample, 2)
	b, _ := NewInformedAttack(sample, 2)
	if a.Words()[0] != "aaa" || b.Words()[0] != "aaa" {
		t.Errorf("tie break not alphabetical: %v", a.Words())
	}
}

func TestInformedAttackCoverage(t *testing.T) {
	sample := []*mail.Message{{Body: "alpha beta gamma\n"}, {Body: "alpha beta\n"}}
	a, _ := NewInformedAttack(sample, 2) // alpha, beta
	held := []*mail.Message{{Body: "alpha delta\n"}}
	if got := a.Coverage(held); got != 0.5 {
		t.Errorf("coverage = %v, want 0.5", got)
	}
	if got := a.Coverage(nil); got != 0 {
		t.Errorf("empty coverage = %v", got)
	}
}

func TestInformedBeatsRandomAtEqualBudget(t *testing.T) {
	// The §1 claim: an informed attacker needs a smaller dictionary.
	// At the same budget, the informed attack must poison more ham
	// than a random dictionary subset.
	g := testGenerator(t)
	r := stats.NewRNG(31)
	train := g.Corpus(r, 300, 300)
	base := sbayes.NewDefault()
	for _, e := range train.Examples {
		base.Learn(e.Msg, e.Spam)
	}
	// Attacker knowledge: a sample of ham from the same distribution
	// (not the training set itself).
	sample := make([]*mail.Message, 150)
	for i := range sample {
		sample[i] = g.HamMessage(r)
	}
	const budget = 600
	informed, err := NewInformedAttack(sample, budget)
	if err != nil {
		t.Fatal(err)
	}
	u := g.Universe()
	randomWords := make([]string, budget)
	idx := r.Sample(u.Size(), budget)
	for i, j := range idx {
		randomWords[i] = u.All()[j]
	}

	probes := make([]*mail.Message, 60)
	for i := range probes {
		probes[i] = g.HamMessage(r)
	}
	// Mean poisoned score is a more sensitive damage measure than
	// verdict flips at this scale.
	damage := func(words []string) float64 {
		f := base.Clone()
		f.LearnTokenStream(tokenize.StreamFromTokens(words), true, 30)
		total := 0.0
		for _, m := range probes {
			total += f.Score(m)
		}
		return total / float64(len(probes))
	}
	di := damage(informed.Words())
	dr := damage(randomWords)
	if di <= dr {
		t.Errorf("informed damage %v not above random damage %v at budget %d", di, dr, budget)
	}
}

func TestPseudospamValidation(t *testing.T) {
	if _, err := NewPseudospamAttack(nil, nil); err == nil {
		t.Error("empty future spam accepted")
	}
}

func TestPseudospamAttackEmail(t *testing.T) {
	g := testGenerator(t)
	r := stats.NewRNG(33)
	future := []*mail.Message{g.SpamMessage(r), g.SpamMessage(r)}
	hamPool := []*mail.Message{g.HamMessage(r)}
	a, err := NewPseudospamAttack(future, hamPool)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "pseudospam" {
		t.Errorf("name = %q", a.Name())
	}
	if a.Taxonomy() != (Taxonomy{Causative, Integrity, Targeted}) {
		t.Errorf("taxonomy = %v", a.Taxonomy())
	}
	if len(a.FutureSpam()) != 2 {
		t.Error("future spam not retained")
	}
	msg := a.BuildAttack(r)
	// Header borrowed from the ham pool.
	if msg.Header.Get("Message-Id") != hamPool[0].Header.Get("Message-Id") {
		t.Error("attack header not from ham pool")
	}
	// Body covers the future spam vocabulary.
	bodyWords := map[string]bool{}
	for _, w := range strings.Fields(msg.Body) {
		bodyWords[w] = true
	}
	for _, m := range future {
		for _, w := range TargetWords(m) {
			if !bodyWords[w] {
				t.Fatalf("future spam word %q missing from attack body", w)
			}
		}
	}
}

func TestPseudospamDeliversFutureSpam(t *testing.T) {
	// End to end: train clean, poison with ham-labeled attack
	// emails, and the attacker's spam reaches the inbox.
	g := testGenerator(t)
	r := stats.NewRNG(35)
	train := g.Corpus(r, 300, 300)
	f := sbayes.NewDefault()
	for _, e := range train.Examples {
		f.Learn(e.Msg, e.Spam)
	}
	future := make([]*mail.Message, 10)
	for i := range future {
		future[i] = g.SpamMessage(r)
	}
	blockedBefore := 0
	for _, m := range future {
		if l, _ := f.Classify(m); l == sbayes.Spam {
			blockedBefore++
		}
	}
	if blockedBefore < 8 {
		t.Fatalf("baseline filter only blocks %d/10 future spam", blockedBefore)
	}
	attack, err := NewPseudospamAttack(future, train.Ham())
	if err != nil {
		t.Fatal(err)
	}
	f.LearnWeighted(attack.BuildAttack(r), false, 60) // trained as HAM
	delivered := 0
	for _, m := range future {
		if l, _ := f.Classify(m); l != sbayes.Spam {
			delivered++
		}
	}
	if delivered < 5 {
		t.Errorf("pseudospam attack delivered only %d/10 future spam", delivered)
	}
	// Ham classification should be largely unharmed (integrity, not
	// availability).
	probes := make([]*mail.Message, 40)
	for i := range probes {
		probes[i] = g.HamMessage(r)
	}
	if mis := countNonHam(f, probes); mis > len(probes)/4 {
		t.Errorf("pseudospam attack broke %d/%d ham", mis, len(probes))
	}
}
