package graham

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/lexicon"
	"repro/internal/mail"
	"repro/internal/stats"
	"repro/internal/textgen"
)

func mkMsg(body string) *mail.Message { return &mail.Message{Body: body} }

func testGen(t testing.TB) *textgen.Generator {
	t.Helper()
	u := textgen.MustUniverse(textgen.SmallUniverseConfig())
	return textgen.MustNew(u, textgen.DefaultConfig())
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Options){
		func(o *Options) { o.UnknownProb = 0 },
		func(o *Options) { o.MinOccurrences = 0 },
		func(o *Options) { o.MaxTokens = 0 },
		func(o *Options) { o.HamWeight = 0 },
		func(o *Options) { o.ClampLow = 0 },
		func(o *Options) { o.ClampHigh = 1 },
		func(o *Options) { o.ClampLow = 0.5; o.ClampHigh = 0.4 },
		func(o *Options) { o.SpamCutoff = 1 },
	}
	for i, mutate := range bad {
		o := DefaultOptions()
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

func TestNewPanicsOnBadOptions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	New(Options{}, nil)
}

func TestUnknownTokensScoreFourTenths(t *testing.T) {
	f := NewDefault()
	for i := 0; i < 10; i++ {
		f.Learn(mkMsg("known spamword\n"), true)
	}
	if got := f.TokenProb("neverseen"); got != 0.4 {
		t.Errorf("unknown prob = %v, want 0.4", got)
	}
	// Below the evidence floor too.
	f2 := NewDefault()
	f2.Learn(mkMsg("rare\n"), true) // 1 occurrence < 5
	if got := f2.TokenProb("rare"); got != 0.4 {
		t.Errorf("below-floor prob = %v, want 0.4", got)
	}
}

func TestTokenProbClamps(t *testing.T) {
	f := NewDefault()
	for i := 0; i < 20; i++ {
		f.Learn(mkMsg("pureham words\n"), false)
		f.Learn(mkMsg("purespam words\n"), true)
	}
	if got := f.TokenProb("purespam"); got != 0.99 {
		t.Errorf("spam-only prob = %v, want clamp 0.99", got)
	}
	if got := f.TokenProb("pureham"); got != 0.01 {
		t.Errorf("ham-only prob = %v, want clamp 0.01", got)
	}
}

func TestHamDoubleWeighting(t *testing.T) {
	// A token seen equally often in ham and spam leans hammy because
	// ham counts double.
	f := NewDefault()
	for i := 0; i < 10; i++ {
		f.Learn(mkMsg("balanced\n"), true)
		f.Learn(mkMsg("balanced\n"), false)
	}
	// g = 2·10, b = 10 → p = 10/ (20+10)... using ratios with equal
	// class sizes: b/nbad = 1, g/ngood = min(1, 2) = 1 → p = 0.5.
	// The min-1 clamp kicks in; verify the direction with unequal
	// evidence instead.
	f2 := NewDefault()
	for i := 0; i < 20; i++ {
		f2.Learn(mkMsg("filler1\n"), true)
		f2.Learn(mkMsg("filler2\n"), false)
	}
	for i := 0; i < 5; i++ {
		f2.Learn(mkMsg("shared\n"), true)
		f2.Learn(mkMsg("shared\n"), false)
	}
	// g = 2·5 of 25 ham, b = 5 of 25 spam → p = 0.2/(0.4+0.2) = 1/3.
	if got := f2.TokenProb("shared"); math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("double-weighted prob = %v, want 1/3", got)
	}
}

func TestMultiplicityCounts(t *testing.T) {
	// Graham counts occurrences, not message presence.
	f := NewDefault()
	f.Learn(mkMsg("echo echo echo echo echo\n"), true)
	if got, _ := f.TokenCounts("echo"); got != 5 {
		t.Errorf("occurrences = %d, want 5", got)
	}
}

func TestClassifySeparableCorpus(t *testing.T) {
	g := testGen(t)
	r := stats.NewRNG(1)
	f := NewDefault()
	train := g.Corpus(r, 300, 300)
	for _, e := range train.Examples {
		f.Learn(e.Msg, e.Spam)
	}
	correct := 0
	const n = 100
	for i := 0; i < n; i++ {
		spam := i%2 == 0
		verdict, _ := f.IsSpam(g.Message(r, spam))
		if verdict == spam {
			correct++
		}
	}
	if correct < n*9/10 {
		t.Errorf("graham baseline accuracy %d/%d", correct, n)
	}
}

func TestLearnWeightedEquivalence(t *testing.T) {
	msg := mkMsg("identical attack words here\n")
	a, b := NewDefault(), NewDefault()
	a.Learn(mkMsg("background\n"), false)
	b.Learn(mkMsg("background\n"), false)
	for i := 0; i < 23; i++ {
		a.Learn(msg, true)
	}
	b.LearnWeighted(msg, true, 23)
	probe := mkMsg("attack background words\n")
	if a.Score(probe) != b.Score(probe) {
		t.Error("weighted learning diverges from repeated learning")
	}
}

func TestUnlearnRestoresMultiplicity(t *testing.T) {
	// Graham counts occurrences, so unlearning must subtract each
	// token's full multiplicity.
	f := NewDefault()
	f.Learn(mkMsg("echo echo echo other\n"), true)
	f.Learn(mkMsg("echo keeper\n"), true)
	if err := f.Unlearn(mkMsg("echo echo echo other\n"), true); err != nil {
		t.Fatal(err)
	}
	if got, _ := f.TokenCounts("echo"); got != 1 {
		t.Errorf("echo occurrences = %d, want 1", got)
	}
	if got, _ := f.TokenCounts("other"); got != 0 {
		t.Error("fully unlearned token kept a count")
	}
	if nbad, _ := f.Counts(); nbad != 1 {
		t.Errorf("nbad = %d, want 1", nbad)
	}
	// Unlearning more than was trained fails without mutating.
	if err := f.Unlearn(mkMsg("echo echo\n"), true); err == nil {
		t.Error("over-unlearn succeeded")
	}
	if got, _ := f.TokenCounts("echo"); got != 1 {
		t.Errorf("failed unlearn mutated counts: echo = %d", got)
	}
	// Wrong label fails too.
	if err := f.Unlearn(mkMsg("echo keeper\n"), false); err == nil {
		t.Error("unlearning spam as ham succeeded")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	f := NewDefault()
	f.Learn(mkMsg("original training words\n"), true)
	c := f.Clone()
	c.Learn(mkMsg("divergent extra words\n"), true)
	if nbad, _ := f.Counts(); nbad != 1 {
		t.Errorf("clone training leaked into original (nbad=%d)", nbad)
	}
	if nbad, _ := c.Counts(); nbad != 2 {
		t.Errorf("clone nbad = %d, want 2", nbad)
	}
	probe := mkMsg("original words probe\n")
	if f.Score(probe) == 0.4 {
		t.Error("original lost its training")
	}
}

func TestLearnWeightedPanicsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewDefault().LearnWeighted(mkMsg("x y z\n"), true, -1)
}

func TestDictionaryAttackPoisonsGraham(t *testing.T) {
	// The attack mechanism is combining-rule independent: Graham's
	// baseline falls to the same poisoning — but needs roughly an
	// order of magnitude more attack volume than SpamBayes, because
	// its hard clamps, binary verdict and 15-token cap let a few
	// surviving pure-ham tokens veto the poisoned majority. (Measured
	// dose-response on this corpus: 2% ≈ none, 10% ≈ 44%, 20% ≈ 68%
	// of ham flipped.)
	g := testGen(t)
	r := stats.NewRNG(2)
	f := NewDefault()
	train := g.Corpus(r, 300, 300)
	for _, e := range train.Examples {
		f.Learn(e.Msg, e.Spam)
	}
	probes := make([]*mail.Message, 50)
	for i := range probes {
		probes[i] = g.HamMessage(r)
	}
	countSpam := func() int {
		n := 0
		for _, m := range probes {
			if verdict, _ := f.IsSpam(m); verdict {
				n++
			}
		}
		return n
	}
	before := countSpam()
	if before > 3 {
		t.Fatalf("baseline already flips %d/50", before)
	}
	attack := core.NewDictionaryAttack(lexicon.Optimal(g.Universe()))
	f.LearnWeighted(attack.BuildAttack(r), true, core.AttackSize(0.20, train.Len()))
	after := countSpam()
	if after < len(probes)/2 {
		t.Errorf("graham ham-as-spam: %d -> %d of %d; attack did not transfer",
			before, after, len(probes))
	}
}

func TestEmptyMessage(t *testing.T) {
	f := NewDefault()
	f.Learn(mkMsg("some training words\n"), true)
	if got := f.Score(&mail.Message{}); got != 0.4 {
		t.Errorf("empty message score = %v, want 0.4 (unknown)", got)
	}
}

func TestScoreBounds(t *testing.T) {
	g := testGen(t)
	r := stats.NewRNG(3)
	f := NewDefault()
	for _, e := range g.Corpus(r, 100, 100).Examples {
		f.Learn(e.Msg, e.Spam)
	}
	for i := 0; i < 50; i++ {
		s := f.Score(g.Message(r, i%2 == 0))
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("score %v out of range", s)
		}
	}
}

func TestSetThresholds(t *testing.T) {
	f := NewDefault()
	var db bytes.Buffer
	if err := NewDefault().Save(&db); err != nil {
		t.Fatal(err)
	}
	// The refit fit domain is the closed [0, 1]: a degenerate
	// calibration legitimately fits 1 ("never spam") or 0, and the
	// setter must install it rather than abort the publish. Load
	// replaces the counts and keeps whatever cutoff is installed.
	for _, spam := range []float64{0, 0.5, 1} {
		if err := f.SetThresholds(0, spam); err != nil {
			t.Errorf("SetThresholds(0, %v): %v", spam, err)
		}
		if f.Options().SpamCutoff != spam {
			t.Errorf("cutoff %v not installed", spam)
		}
		if err := f.Load(bytes.NewReader(db.Bytes())); err != nil || f.Options().SpamCutoff != spam {
			t.Errorf("Load after SetThresholds(0, %v): error %v, cutoff %v", spam, err, f.Options().SpamCutoff)
		}
	}
	if err := f.SetThresholds(0, 1.5); err == nil {
		t.Error("cutoff above 1 accepted")
	}
	if err := f.SetThresholds(0.9, 0.1); err == nil {
		t.Error("ham cutoff above spam cutoff accepted")
	}
}
