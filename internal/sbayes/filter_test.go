package sbayes

import (
	"math"
	"strings"
	"testing"

	"repro/internal/mail"
	"repro/internal/tokenize"
)

// mkMsg builds a bare-body message.
func mkMsg(body string) *mail.Message { return &mail.Message{Body: body} }

// learnWords, unlearnWords, scoreWords and classifyWords drive a
// filter with a hand-made token list through the stream contract.
func learnWords(f *Filter, words []string, isSpam bool, weight int) {
	f.LearnTokenStream(tokenize.StreamFromTokens(words), isSpam, weight)
}

func unlearnWords(f *Filter, words []string, isSpam bool, weight int) error {
	return f.UnlearnTokenStream(tokenize.StreamFromTokens(words), isSpam, weight)
}

func scoreWords(f *Filter, words []string) float64 {
	return f.ScoreTokenStream(tokenize.StreamFromTokens(words))
}

func classifyWords(f *Filter, words []string) (Label, float64) {
	return f.ClassifyTokenStream(tokenize.StreamFromTokens(words))
}

// trainBasic trains a small, clearly separated corpus.
func trainBasic(f *Filter) {
	for i := 0; i < 10; i++ {
		f.Learn(mkMsg("meeting budget report quarterly forecast\n"), false)
		f.Learn(mkMsg("viagra lottery winner claim prize\n"), true)
	}
}

func TestLabelString(t *testing.T) {
	if Ham.String() != "ham" || Unsure.String() != "unsure" || Spam.String() != "spam" {
		t.Error("Label.String broken")
	}
	if !strings.Contains(Label(9).String(), "9") {
		t.Error("unknown label String")
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Errorf("default options invalid: %v", err)
	}
	bad := []func(*Options){
		func(o *Options) { o.UnknownWordProb = -0.1 },
		func(o *Options) { o.UnknownWordProb = 1.1 },
		func(o *Options) { o.UnknownWordStrength = -1 },
		func(o *Options) { o.MinProbStrength = 0.6 },
		func(o *Options) { o.MaxDiscriminators = 0 },
		func(o *Options) { o.HamCutoff = -0.2 },
		func(o *Options) { o.SpamCutoff = 1.2 },
		func(o *Options) { o.HamCutoff = 0.95; o.SpamCutoff = 0.9 },
	}
	for i, mutate := range bad {
		o := DefaultOptions()
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: invalid options validated", i)
		}
	}
}

func TestLabelFor(t *testing.T) {
	o := DefaultOptions()
	cases := []struct {
		score float64
		want  Label
	}{
		{0, Ham}, {0.15, Ham}, {0.150001, Unsure}, {0.5, Unsure},
		{0.9, Unsure}, {0.900001, Spam}, {1, Spam},
	}
	for _, c := range cases {
		if got := o.LabelFor(c.score); got != c.want {
			t.Errorf("LabelFor(%v) = %v, want %v", c.score, got, c.want)
		}
	}
}

func TestNewPanicsOnBadOptions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid options did not panic")
		}
	}()
	New(Options{}, nil)
}

func TestUnknownTokenScoresPrior(t *testing.T) {
	f := NewDefault()
	trainBasic(f)
	if got := f.TokenScore("neverseen"); got != 0.5 {
		t.Errorf("unknown token score = %v, want 0.5", got)
	}
}

func TestTokenScoreDirection(t *testing.T) {
	f := NewDefault()
	trainBasic(f)
	spammy := f.TokenScore("viagra")
	hammy := f.TokenScore("budget")
	if spammy <= 0.9 {
		t.Errorf("spam-only token score = %v, want > 0.9", spammy)
	}
	if hammy >= 0.1 {
		t.Errorf("ham-only token score = %v, want < 0.1", hammy)
	}
}

func TestTokenScoreEquationOne(t *testing.T) {
	// Hand-check PS(w) and f(w): token in 3 of 4 spam, 1 of 6 ham.
	f := NewDefault()
	learnWords(f, []string{"w"}, true, 3)
	learnWords(f, []string{"other"}, true, 1)
	learnWords(f, []string{"w"}, false, 1)
	learnWords(f, []string{"other"}, false, 5)
	// PS = (6*3)/(6*3 + 4*1) = 18/22.
	ps := 18.0 / 22.0
	n := 4.0
	want := (0.45*0.5 + n*ps) / (0.45 + n)
	if got := f.TokenScore("w"); math.Abs(got-want) > 1e-12 {
		t.Errorf("TokenScore = %v, want %v", got, want)
	}
}

func TestScoreSeparation(t *testing.T) {
	f := NewDefault()
	trainBasic(f)
	spamScore := f.Score(mkMsg("viagra lottery prize\n"))
	hamScore := f.Score(mkMsg("budget meeting forecast\n"))
	if spamScore < 0.9 {
		t.Errorf("spam message score = %v, want > 0.9", spamScore)
	}
	if hamScore > 0.15 {
		t.Errorf("ham message score = %v, want < 0.15", hamScore)
	}
	if l, _ := f.Classify(mkMsg("viagra lottery prize\n")); l != Spam {
		t.Errorf("classify spam = %v", l)
	}
	if l, _ := f.Classify(mkMsg("budget meeting forecast\n")); l != Ham {
		t.Errorf("classify ham = %v", l)
	}
}

func TestEmptyMessageIsUnsure(t *testing.T) {
	f := NewDefault()
	trainBasic(f)
	label, score := f.Classify(mkMsg(""))
	if score != 0.5 || label != Unsure {
		t.Errorf("empty message = (%v, %v), want (unsure, 0.5)", label, score)
	}
}

func TestAllUnknownTokensIsUnsure(t *testing.T) {
	f := NewDefault()
	trainBasic(f)
	_, score := f.Classify(mkMsg("xylophone quantum dirigible\n"))
	if score != 0.5 {
		t.Errorf("all-unknown message score = %v, want 0.5", score)
	}
}

func TestUntrainedFilterIsUnsure(t *testing.T) {
	f := NewDefault()
	if s := f.Score(mkMsg("anything goes here\n")); s != 0.5 {
		t.Errorf("untrained score = %v", s)
	}
}

func TestIndifferenceWindowExcluded(t *testing.T) {
	// A token seen equally in ham and spam scores 0.5 and must not
	// drag the verdict away from stronger evidence.
	f := NewDefault()
	for i := 0; i < 20; i++ {
		f.Learn(mkMsg("neutral spamword\n"), true)
		f.Learn(mkMsg("neutral hamword\n"), false)
	}
	if d := math.Abs(f.TokenScore("neutral") - 0.5); d >= 0.1 {
		t.Fatalf("balanced token distance = %v, want < 0.1", d)
	}
	withNeutral := f.Score(mkMsg("spamword neutral\n"))
	without := f.Score(mkMsg("spamword\n"))
	if withNeutral != without {
		t.Errorf("neutral token changed score: %v vs %v", withNeutral, without)
	}
}

func TestMaxDiscriminatorsCap(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxDiscriminators = 3
	f := New(opts, nil)
	// Train 10 distinct spammy tokens and 10 hammy ones.
	spamTokens := []string{"sp0", "sp1", "sp2", "sp3", "sp4", "sp5", "sp6", "sp7", "sp8", "sp9"}
	hamTokens := []string{"hm0", "hm1", "hm2", "hm3", "hm4", "hm5", "hm6", "hm7", "hm8", "hm9"}
	for i := 0; i < 10; i++ {
		learnWords(f, spamTokens, true, 1)
		learnWords(f, hamTokens, false, 1)
	}
	// A message with 3 spammy and 10 hammy tokens: with a cap of 3 the
	// strongest 3 tie between spam and ham by distance; determinism and
	// boundedness are what we check here.
	msg := append([]string{}, spamTokens[:3]...)
	msg = append(msg, hamTokens...)
	_, s1 := classifyWords(f, msg)
	_, s2 := classifyWords(f, msg)
	if s1 != s2 {
		t.Errorf("capped classification not deterministic: %v vs %v", s1, s2)
	}
}

func TestExplain(t *testing.T) {
	f := NewDefault()
	trainBasic(f)
	clues := f.Explain(mkMsg("viagra budget neverseen\n"))
	if len(clues) != 3 {
		t.Fatalf("Explain returned %d clues", len(clues))
	}
	byToken := map[string]Clue{}
	for _, c := range clues {
		byToken[c.Token] = c
	}
	if !byToken["viagra"].Used || byToken["viagra"].Score < 0.9 {
		t.Errorf("viagra clue = %+v", byToken["viagra"])
	}
	if !byToken["budget"].Used || byToken["budget"].Score > 0.1 {
		t.Errorf("budget clue = %+v", byToken["budget"])
	}
	if byToken["neverseen"].Used || byToken["neverseen"].Score != 0.5 {
		t.Errorf("neverseen clue = %+v", byToken["neverseen"])
	}
}

func TestLearnWeightedEquivalence(t *testing.T) {
	msg := mkMsg("identical attack email tokens here\n")
	other := mkMsg("background ham words\n")
	a := NewDefault()
	b := NewDefault()
	a.Learn(other, false)
	b.Learn(other, false)
	for i := 0; i < 137; i++ {
		a.Learn(msg, true)
	}
	b.LearnWeighted(msg, true, 137)
	if an, ah := a.Counts(); func() bool { bn, bh := b.Counts(); return an != bn || ah != bh }() {
		t.Fatalf("counts differ: %v/%v", an, ah)
	}
	probe := mkMsg("attack background neverseen\n")
	if sa, sb := a.Score(probe), b.Score(probe); sa != sb {
		t.Errorf("scores differ: %v vs %v", sa, sb)
	}
	for _, tok := range []string{"identical", "attack", "background"} {
		if a.TokenScore(tok) != b.TokenScore(tok) {
			t.Errorf("token %q scores differ", tok)
		}
	}
}

func TestLearnZeroWeightNoOp(t *testing.T) {
	f := NewDefault()
	f.LearnWeighted(mkMsg("abc def\n"), true, 0)
	if ns, nh := f.Counts(); ns != 0 || nh != 0 || f.VocabSize() != 0 {
		t.Error("zero-weight learn mutated the filter")
	}
}

func TestLearnNegativeWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative weight did not panic")
		}
	}()
	NewDefault().LearnWeighted(mkMsg("abc\n"), true, -1)
}

func TestUnlearnRoundTrip(t *testing.T) {
	f := NewDefault()
	trainBasic(f)
	before := f.Score(mkMsg("viagra budget\n"))
	vocab := f.VocabSize()
	extra := mkMsg("transient tokens appear once\n")
	f.Learn(extra, true)
	if f.Score(mkMsg("viagra budget\n")) == before {
		t.Log("score unchanged after learn (possible but unusual)")
	}
	if err := f.Unlearn(extra, true); err != nil {
		t.Fatal(err)
	}
	if got := f.Score(mkMsg("viagra budget\n")); got != before {
		t.Errorf("unlearn did not restore score: %v vs %v", got, before)
	}
	if f.VocabSize() != vocab {
		t.Errorf("unlearn leaked vocab: %d vs %d", f.VocabSize(), vocab)
	}
}

func TestUnlearnUnderflowDetected(t *testing.T) {
	f := NewDefault()
	f.Learn(mkMsg("alpha beta\n"), true)
	if err := f.Unlearn(mkMsg("alpha beta\n"), false); err == nil {
		t.Error("unlearning with wrong label succeeded")
	}
	if err := f.Unlearn(mkMsg("alpha gamma\n"), true); err == nil {
		t.Error("unlearning unseen tokens succeeded")
	}
	// Failed unlearn must leave counts intact.
	if ns, nh := f.Counts(); ns != 1 || nh != 0 {
		t.Errorf("counts after failed unlearn = %d/%d", ns, nh)
	}
	if s, _ := f.TokenCounts("alpha"); s != 1 {
		t.Error("failed unlearn mutated token counts")
	}
}

func TestCloneIndependence(t *testing.T) {
	f := NewDefault()
	trainBasic(f)
	c := f.Clone()
	c.Learn(mkMsg("cloneonly token\n"), true)
	if f.TokenScore("cloneonly") != 0.5 {
		t.Error("mutating clone affected original")
	}
	if c.TokenScore("cloneonly") == 0.5 {
		t.Error("clone did not learn")
	}
	fs, _ := f.Counts()
	cs, _ := c.Counts()
	if cs != fs+1 {
		t.Errorf("clone counts %d, original %d", cs, fs)
	}
}

func TestSetThresholds(t *testing.T) {
	f := NewDefault()
	if err := f.SetThresholds(0.3, 0.7); err != nil {
		t.Fatal(err)
	}
	if f.Options().HamCutoff != 0.3 || f.Options().SpamCutoff != 0.7 {
		t.Error("thresholds not applied")
	}
	if err := f.SetThresholds(0.8, 0.2); err == nil {
		t.Error("inverted thresholds accepted")
	}
}

func TestScoreMonotoneInSpamEvidence(t *testing.T) {
	// Adding the attack token to more spam training messages must not
	// decrease a message's score (the monotonicity the paper's §3.4
	// optimal-attack argument relies on).
	prev := -1.0
	for w := 0; w <= 50; w += 5 {
		f := NewDefault()
		trainBasic(f)
		learnWords(f, []string{"attacked"}, true, w)
		s := f.Score(mkMsg("attacked budget meeting\n"))
		if s < prev-1e-12 {
			t.Fatalf("score decreased from %v to %v at weight %d", prev, s, w)
		}
		prev = s
	}
}

func TestCountsAndVocab(t *testing.T) {
	f := NewDefault()
	f.Learn(mkMsg("one two three\n"), true)
	f.Learn(mkMsg("two three four\n"), false)
	ns, nh := f.Counts()
	if ns != 1 || nh != 1 {
		t.Errorf("counts = %d/%d", ns, nh)
	}
	if f.VocabSize() != 4 {
		t.Errorf("vocab = %d, want 4", f.VocabSize())
	}
	if s, h := f.TokenCounts("two"); s != 1 || h != 1 {
		t.Errorf("TokenCounts(two) = %d/%d", s, h)
	}
	if s, h := f.TokenCounts("absent"); s != 0 || h != 0 {
		t.Errorf("TokenCounts(absent) = %d/%d", s, h)
	}
}
