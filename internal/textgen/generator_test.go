package textgen

import (
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/tokenize"
)

func smallGenerator(t testing.TB) *Generator {
	t.Helper()
	u := MustUniverse(SmallUniverseConfig())
	return MustNew(u, DefaultConfig())
}

func TestMixtureValidate(t *testing.T) {
	u := MustUniverse(SmallUniverseConfig())
	good := HamMixture(u)
	if err := good.Validate(u); err != nil {
		t.Fatalf("ham mixture invalid: %v", err)
	}
	if err := SpamMixture(u).Validate(u); err != nil {
		t.Fatalf("spam mixture invalid: %v", err)
	}
	if err := UsenetMixture(u).Validate(u); err != nil {
		t.Fatalf("usenet mixture invalid: %v", err)
	}
	bad := []Mixture{
		{},
		{{Segment: Segment(17), Weight: 1, ZipfS: 1}},
		{{Segment: SegCommon, Weight: -1, ZipfS: 1}},
		{{Segment: SegCommon, Weight: 0}},
		{{Segment: SegCommon, Weight: 1, Ranks: 10_000_000}},
		{{Segment: SegCommon, Weight: 1, ZipfS: -2}},
	}
	for i, m := range bad {
		if err := m.Validate(u); err == nil {
			t.Errorf("bad mixture %d validated", i)
		}
	}
}

func TestModelSamplesFromDeclaredSegments(t *testing.T) {
	u := MustUniverse(SmallUniverseConfig())
	m := MustCompile(u, Mixture{
		{Segment: SegSpam, Weight: 0.5, ZipfS: 1.1},
		{Segment: SegPersonal, Weight: 0.5},
	})
	r := stats.NewRNG(1)
	for i := 0; i < 5000; i++ {
		w := m.Word(r)
		seg, ok := u.SegmentOf(w)
		if !ok || (seg != SegSpam && seg != SegPersonal) {
			t.Fatalf("sampled %q from segment %v", w, seg)
		}
	}
}

func TestModelRankCap(t *testing.T) {
	u := MustUniverse(SmallUniverseConfig())
	m := MustCompile(u, Mixture{{Segment: SegStandard, Weight: 1, Ranks: 10, ZipfS: 1.0}})
	allowed := map[string]bool{}
	for _, w := range u.Words(SegStandard)[:10] {
		allowed[w] = true
	}
	r := stats.NewRNG(2)
	for i := 0; i < 2000; i++ {
		if w := m.Word(r); !allowed[w] {
			t.Fatalf("sampled %q beyond rank cap", w)
		}
	}
}

func TestUsenetStandardRanksDefault(t *testing.T) {
	u := MustUniverse(DefaultUniverseConfig())
	if got := UsenetStandardRanks(u); got != 59000 {
		t.Errorf("UsenetStandardRanks = %d, want 59000", got)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.BodyTokensMedian = 0 },
		func(c *Config) { c.BodyTokensSigma = -1 },
		func(c *Config) { c.MinBodyTokens = 0 },
		func(c *Config) { c.MaxBodyTokens = 5; c.MinBodyTokens = 10 },
		func(c *Config) { c.SentenceMin = 0 },
		func(c *Config) { c.SentenceMax = 2; c.SentenceMin = 5 },
		func(c *Config) { c.WordsPerLine = 0 },
		func(c *Config) { c.SubjectMin = 0 },
		func(c *Config) { c.HamURLProb = 1.5 },
		func(c *Config) { c.SpamURLProb = -0.1 },
		func(c *Config) { c.HamDomains = 0 },
		func(c *Config) { c.ReceivedHopsMax = 0 },
	}
	for i, mutate := range mutations {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d validated", i)
		}
	}
}

func TestHamMessageStructure(t *testing.T) {
	g := smallGenerator(t)
	r := stats.NewRNG(3)
	m := g.HamMessage(r)
	if m.Subject() == "" {
		t.Error("ham message has no subject")
	}
	if !strings.Contains(m.From(), "@") {
		t.Errorf("From = %q", m.From())
	}
	if !strings.Contains(m.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("ham Content-Type = %q", m.Header.Get("Content-Type"))
	}
	if len(strings.Fields(m.Body)) < DefaultConfig().MinBodyTokens {
		t.Errorf("body too short: %d fields", len(strings.Fields(m.Body)))
	}
}

func TestSpamMessageStructure(t *testing.T) {
	g := smallGenerator(t)
	r := stats.NewRNG(4)
	m := g.SpamMessage(r)
	if !strings.Contains(m.Header.Get("Content-Type"), "text/html") {
		t.Errorf("spam Content-Type = %q", m.Header.Get("Content-Type"))
	}
	if m.Subject() == "" {
		t.Error("spam message has no subject")
	}
}

func TestMessageLabelDispatch(t *testing.T) {
	g := smallGenerator(t)
	r := stats.NewRNG(5)
	if m := g.Message(r, true); !strings.Contains(m.Header.Get("Content-Type"), "html") {
		t.Error("Message(true) did not produce spam-profile header")
	}
	if m := g.Message(r, false); !strings.Contains(m.Header.Get("Content-Type"), "plain") {
		t.Error("Message(false) did not produce ham-profile header")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	g := smallGenerator(t)
	a := g.HamMessage(stats.NewRNG(42)).String()
	b := g.HamMessage(stats.NewRNG(42)).String()
	if a != b {
		t.Error("generation is not deterministic")
	}
}

func TestBodyLengthDistribution(t *testing.T) {
	g := smallGenerator(t)
	r := stats.NewRNG(6)
	cfg := g.Config()
	total := 0
	const n = 300
	for i := 0; i < n; i++ {
		fields := strings.Fields(g.HamMessage(r).Body)
		words := 0
		for _, f := range fields {
			if len(f) >= 3 { // skip standalone punctuation
				words++
			}
		}
		if words < cfg.MinBodyTokens || words > cfg.MaxBodyTokens+cfg.SentenceMax {
			t.Fatalf("body has %d words, outside [%d, %d]", words, cfg.MinBodyTokens, cfg.MaxBodyTokens)
		}
		total += words
	}
	mean := float64(total) / n
	if mean < 180 || mean > 400 {
		t.Errorf("mean body words = %v, want ≈240–280", mean)
	}
}

func TestBodyPunctuationStandalone(t *testing.T) {
	g := smallGenerator(t)
	r := stats.NewRNG(7)
	body := g.HamMessage(r).Body
	for _, f := range strings.Fields(body) {
		if len(f) == 1 {
			if f != "." && f != "!" && f != "?" {
				t.Errorf("unexpected standalone token %q", f)
			}
			continue
		}
		if strings.HasSuffix(f, ".") && !strings.HasPrefix(f, "http") {
			t.Errorf("punctuation attached to word %q", f)
		}
	}
}

func TestBodyTokensAreLexiconCompatible(t *testing.T) {
	// Every multi-char body token of a ham message must be a
	// universe word or a URL; this is what makes dictionary
	// coverage exact.
	g := smallGenerator(t)
	r := stats.NewRNG(8)
	u := g.Universe()
	for i := 0; i < 20; i++ {
		body := g.HamMessage(r).Body
		for _, f := range strings.Fields(body) {
			if len(f) == 1 || strings.HasPrefix(f, "http://") {
				continue
			}
			if _, ok := u.SegmentOf(f); !ok {
				t.Fatalf("body word %q not in universe", f)
			}
		}
	}
}

func TestSpamHasMoreURLs(t *testing.T) {
	g := smallGenerator(t)
	r := stats.NewRNG(9)
	countURLs := func(spam bool) int {
		n := 0
		for i := 0; i < 100; i++ {
			n += strings.Count(g.Message(r, spam).Body, "http://")
		}
		return n
	}
	spamURLs, hamURLs := countURLs(true), countURLs(false)
	if spamURLs <= hamURLs {
		t.Errorf("spam URLs %d <= ham URLs %d", spamURLs, hamURLs)
	}
}

func TestCorpusGeneration(t *testing.T) {
	g := smallGenerator(t)
	c := g.Corpus(stats.NewRNG(10), 30, 20)
	if c.NumHam() != 30 || c.NumSpam() != 20 {
		t.Errorf("corpus = %d ham %d spam", c.NumHam(), c.NumSpam())
	}
	// Shuffled: the first 30 must not all be ham.
	allHamFirst := true
	for _, e := range c.Examples[:30] {
		if e.Spam {
			allHamFirst = false
			break
		}
	}
	if allHamFirst {
		t.Error("corpus does not appear shuffled")
	}
}

func TestUsenetTokens(t *testing.T) {
	g := smallGenerator(t)
	toks := g.UsenetTokens(stats.NewRNG(11), 5000)
	if len(toks) != 5000 {
		t.Fatalf("got %d tokens", len(toks))
	}
	u := g.Universe()
	usenetRanks := UsenetStandardRanks(u)
	stdWords := u.Words(SegStandard)
	beyondCap := map[string]bool{}
	for _, w := range stdWords[usenetRanks:] {
		beyondCap[w] = true
	}
	for _, tok := range toks {
		seg, ok := u.SegmentOf(tok)
		if !ok {
			t.Fatalf("usenet token %q not in universe", tok)
		}
		switch seg {
		case SegCommon, SegStandard, SegColloquial:
		default:
			t.Fatalf("usenet token %q from segment %v", tok, seg)
		}
		if beyondCap[tok] {
			t.Fatalf("usenet token %q beyond the standard rank cap", tok)
		}
	}
}

func TestHamSpamVocabularyDiffer(t *testing.T) {
	// The two classes must be separable: spam-topical tokens should
	// be much more frequent in spam text.
	g := smallGenerator(t)
	r := stats.NewRNG(12)
	u := g.Universe()
	countSpamSeg := func(m *Model) int {
		n := 0
		for _, w := range m.Words(r, 5000) {
			if seg, _ := u.SegmentOf(w); seg == SegSpam {
				n++
			}
		}
		return n
	}
	inSpam := countSpamSeg(g.SpamModel())
	inHam := countSpamSeg(g.HamModel())
	if inSpam < 5*inHam {
		t.Errorf("spam-segment tokens: %d in spam vs %d in ham", inSpam, inHam)
	}
}

func TestGeneratedMessagesTokenize(t *testing.T) {
	g := smallGenerator(t)
	r := stats.NewRNG(13)
	tok := tokenize.Default()
	for i := 0; i < 10; i++ {
		ham := tok.Stream(g.HamMessage(r)).Len()
		spam := tok.Stream(g.SpamMessage(r)).Len()
		if ham < 20 || spam < 20 {
			t.Fatalf("token sets too small: %d/%d", ham, spam)
		}
	}
}

func BenchmarkHamMessage(b *testing.B) {
	g := smallGenerator(b)
	r := stats.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HamMessage(r)
	}
}
