package core

import (
	"strings"
	"testing"

	"repro/internal/lexicon"
	"repro/internal/mail"
	"repro/internal/sbayes"
	"repro/internal/stats"
	"repro/internal/textgen"
	"repro/internal/tokenize"
)

// testUniverse builds the scaled-down universe shared by core tests.
func testUniverse() *textgen.Universe {
	return textgen.MustUniverse(textgen.SmallUniverseConfig())
}

func testGenerator(t testing.TB) *textgen.Generator {
	t.Helper()
	return textgen.MustNew(testUniverse(), textgen.DefaultConfig())
}

func TestTaxonomyStrings(t *testing.T) {
	tx := Taxonomy{Causative, Availability, Indiscriminate}
	if got := tx.String(); got != "Causative Availability Indiscriminate" {
		t.Errorf("String = %q", got)
	}
	if Exploratory.String() != "Exploratory" || Integrity.String() != "Integrity" || Targeted.String() != "Targeted" {
		t.Error("axis names wrong")
	}
	if !strings.Contains(Influence(9).String(), "9") ||
		!strings.Contains(Violation(9).String(), "9") ||
		!strings.Contains(Specificity(9).String(), "9") {
		t.Error("unknown axis values should include the number")
	}
}

func TestAttackSizePaperArithmetic(t *testing.T) {
	// The paper: 1% of a 10,000-message training set = 101 attack
	// emails; 2% = 204.
	if got := AttackSize(0.01, 10000); got != 101 {
		t.Errorf("AttackSize(0.01, 10000) = %d, want 101", got)
	}
	if got := AttackSize(0.02, 10000); got != 204 {
		t.Errorf("AttackSize(0.02, 10000) = %d, want 204", got)
	}
	if got := AttackSize(0.10, 10000); got != 1111 {
		t.Errorf("AttackSize(0.10, 10000) = %d, want 1111", got)
	}
	if got := AttackSize(0, 10000); got != 0 {
		t.Errorf("AttackSize(0, ·) = %d", got)
	}
	if got := AttackSize(0.5, 0); got != 0 {
		t.Errorf("AttackSize(·, 0) = %d", got)
	}
}

func TestAttackSizePanicsAtOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AttackSize(1, ·) did not panic")
		}
	}()
	AttackSize(1, 100)
}

func TestBodyFromWords(t *testing.T) {
	got := BodyFromWords([]string{"aa", "bb", "cc", "dd", "ee"}, 2)
	want := "aa bb\ncc dd\nee\n"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
	if BodyFromWords(nil, 5) != "" {
		t.Error("empty words should give empty body")
	}
	// Non-positive perLine defaults sanely.
	if !strings.Contains(BodyFromWords([]string{"aaa"}, 0), "aaa") {
		t.Error("perLine=0 broken")
	}
}

func TestTargetWords(t *testing.T) {
	m := &mail.Message{Body: "Alpha beta ALPHA of beta gamma-ray x\n"}
	got := TargetWords(m)
	want := []string{"alpha", "beta", "gamma-ray"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got %v, want %v", got, want)
		}
	}
}

func TestDictionaryAttackEmail(t *testing.T) {
	u := testUniverse()
	lex := lexicon.Aspell(u)
	a := NewDictionaryAttack(lex)
	if a.Name() != "aspell" {
		t.Errorf("Name = %q", a.Name())
	}
	if a.Taxonomy() != (Taxonomy{Causative, Availability, Indiscriminate}) {
		t.Errorf("Taxonomy = %v", a.Taxonomy())
	}
	m := a.BuildAttack(stats.NewRNG(1))
	// Empty header per the contamination assumption.
	if len(m.Header) != 0 {
		t.Errorf("attack email has %d header fields, want 0", len(m.Header))
	}
	// Body contains every lexicon word exactly once.
	ts := tokenize.Default().Stream(m)
	if ts.Len() != lex.Len() {
		t.Errorf("attack token set = %d, lexicon = %d", ts.Len(), lex.Len())
	}
	for i := 0; i < 10; i++ {
		if tok := string(ts.At(i)); !lex.Contains(tok) {
			t.Errorf("attack token %q not in lexicon", tok)
		}
	}
}

func TestOptimalAttackCoversUniverse(t *testing.T) {
	u := testUniverse()
	a := NewOptimalAttack(u)
	if a.Name() != "optimal" {
		t.Errorf("Name = %q", a.Name())
	}
	m := a.BuildAttack(stats.NewRNG(1))
	if n := tokenize.Default().Stream(m).Len(); n != u.Size() {
		t.Errorf("optimal attack tokens = %d, universe = %d", n, u.Size())
	}
}

func TestFocusedAttackValidation(t *testing.T) {
	if _, err := NewFocusedAttack(nil, 0.5, nil); err == nil {
		t.Error("nil target accepted")
	}
	if _, err := NewFocusedAttack(&mail.Message{}, -0.1, nil); err == nil {
		t.Error("negative probability accepted")
	}
	if _, err := NewFocusedAttack(&mail.Message{}, 1.1, nil); err == nil {
		t.Error("probability >1 accepted")
	}
}

func TestFocusedAttackGuessing(t *testing.T) {
	g := testGenerator(t)
	r := stats.NewRNG(2)
	target := g.HamMessage(r)
	words := TargetWords(target)

	// p=1 guesses everything; p=0 guesses nothing.
	all, err := NewFocusedAttack(target, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := all.GuessWords(r); len(got) != len(words) {
		t.Errorf("p=1 guessed %d of %d", len(got), len(words))
	}
	none, _ := NewFocusedAttack(target, 0, nil)
	if got := none.GuessWords(r); len(got) != 0 {
		t.Errorf("p=0 guessed %d", len(got))
	}

	// p=0.5 guesses about half.
	half, _ := NewFocusedAttack(target, 0.5, nil)
	n := len(half.GuessWords(r))
	if n < len(words)/4 || n > 3*len(words)/4 {
		t.Errorf("p=0.5 guessed %d of %d", n, len(words))
	}
	if half.GuessProb() != 0.5 || half.Target() != target {
		t.Error("accessors broken")
	}
	if !strings.Contains(half.Name(), "0.50") {
		t.Errorf("Name = %q", half.Name())
	}
	if half.Taxonomy() != (Taxonomy{Causative, Availability, Targeted}) {
		t.Errorf("Taxonomy = %v", half.Taxonomy())
	}
}

func TestFocusedAttackHeaderFromPool(t *testing.T) {
	g := testGenerator(t)
	r := stats.NewRNG(3)
	target := g.HamMessage(r)
	pool := []*mail.Message{g.SpamMessage(r), g.SpamMessage(r)}
	a, err := NewFocusedAttack(target, 0.5, pool)
	if err != nil {
		t.Fatal(err)
	}
	m := a.BuildAttack(r)
	if len(m.Header) == 0 {
		t.Fatal("attack email has no header despite pool")
	}
	// The header must be one of the pool headers.
	match := false
	for _, p := range pool {
		if m.Header.Get("Message-Id") == p.Header.Get("Message-Id") {
			match = true
		}
	}
	if !match {
		t.Error("attack header not copied from pool")
	}
	// And the body must contain only target words.
	targetSet := map[string]bool{}
	for _, w := range TargetWords(target) {
		targetSet[w] = true
	}
	for _, w := range strings.Fields(m.Body) {
		if !targetSet[w] {
			t.Errorf("attack body word %q not from target", w)
		}
	}
}

func TestFocusedAttackEmptyPoolEmptyHeader(t *testing.T) {
	g := testGenerator(t)
	r := stats.NewRNG(4)
	a, _ := NewFocusedAttack(g.HamMessage(r), 0.5, nil)
	if m := a.BuildAttack(r); len(m.Header) != 0 {
		t.Error("no pool should mean empty header")
	}
}

// TestDictionaryAttackPoisonsFilter is the core end-to-end check: a
// trained filter misclassifies ham after dictionary poisoning.
func TestDictionaryAttackPoisonsFilter(t *testing.T) {
	g := testGenerator(t)
	r := stats.NewRNG(5)
	train := g.Corpus(r, 300, 300)
	f := sbayes.NewDefault()
	for _, e := range train.Examples {
		f.Learn(e.Msg, e.Spam)
	}
	probes := make([]*mail.Message, 50)
	for i := range probes {
		probes[i] = g.HamMessage(r)
	}
	misBefore := countNonHam(f, probes)

	attack := NewDictionaryAttack(lexicon.Optimal(g.Universe()))
	n := AttackSize(0.05, train.Len())
	f.LearnWeighted(attack.BuildAttack(r), true, n)
	misAfter := countNonHam(f, probes)
	if misAfter <= misBefore+25 {
		t.Errorf("attack misclassified %d → %d of %d; expected a large jump", misBefore, misAfter, len(probes))
	}
}

// TestFocusedAttackBlocksTarget checks the targeted variant flips its
// target while leaving other ham mostly alone.
func TestFocusedAttackBlocksTarget(t *testing.T) {
	g := testGenerator(t)
	r := stats.NewRNG(6)
	train := g.Corpus(r, 300, 300)
	f := sbayes.NewDefault()
	for _, e := range train.Examples {
		f.Learn(e.Msg, e.Spam)
	}
	target := g.HamMessage(r)
	before, _ := f.Classify(target)
	if before != sbayes.Ham {
		t.Fatalf("target not ham before attack: %v", before)
	}
	attack, _ := NewFocusedAttack(target, 0.9, train.Spam())
	f.LearnWeighted(attack.BuildAttack(r), true, 60)
	after, score := f.Classify(target)
	if after == sbayes.Ham {
		t.Errorf("target still ham after focused attack (score %v)", score)
	}
	// Collateral damage on unrelated ham should be limited.
	others := make([]*mail.Message, 30)
	for i := range others {
		others[i] = g.HamMessage(r)
	}
	if mis := countNonHam(f, others); mis > len(others)/2 {
		t.Errorf("focused attack flipped %d/%d unrelated ham", mis, len(others))
	}
}

func countNonHam(f *sbayes.Filter, msgs []*mail.Message) int {
	n := 0
	for _, m := range msgs {
		if l, _ := f.Classify(m); l != sbayes.Ham {
			n++
		}
	}
	return n
}

// TestMonotonicityExpectedScore exercises the §3.4 optimality
// argument: adding words to the attack never lowers the expected spam
// score of the next message.
func TestMonotonicityExpectedScore(t *testing.T) {
	g := testGenerator(t)
	r := stats.NewRNG(7)
	train := g.Corpus(r, 100, 100)
	base := sbayes.NewDefault()
	for _, e := range train.Examples {
		base.Learn(e.Msg, e.Spam)
	}
	// Next-message distribution p: a handful of ham-ish words.
	u := g.Universe()
	p := map[string]float64{}
	for _, w := range u.Words(textgen.SegStandard)[:8] {
		p[w] = 0.6
	}
	for _, w := range u.Words(textgen.SegColloquial)[:4] {
		p[w] = 0.3
	}
	// Hold the number of attack messages fixed (the §3.4 setting:
	// the attacker chooses which words to include in a given attack
	// email) and grow only the included word set. Training even an
	// empty attack message changes all scores slightly by raising
	// the total spam count, which is why the word sets — not the
	// message counts — must vary here.
	scoreWith := func(attackWords []string) float64 {
		f := base.Clone()
		f.LearnTokenStream(tokenize.StreamFromTokens(attackWords), true, 10)
		return ExpectedSpamScore(r.Clone(), p, 60, func(words []string) float64 {
			return f.ScoreTokenStream(tokenize.StreamFromTokens(words))
		})
	}
	small := u.Words(textgen.SegStandard)[:4]
	large := u.Words(textgen.SegStandard)[:8]
	sNone := scoreWith(nil)
	sSmall := scoreWith(small)
	sLarge := scoreWith(large)
	if !(sNone <= sSmall+1e-9 && sSmall <= sLarge+1e-9) {
		t.Errorf("expected score not monotone: none=%v small=%v large=%v", sNone, sSmall, sLarge)
	}
}
