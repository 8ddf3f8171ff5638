package textgen

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestSubjectLengthBounds(t *testing.T) {
	g := smallGenerator(t)
	r := stats.NewRNG(41)
	cfg := g.Config()
	for i := 0; i < 200; i++ {
		n := len(strings.Fields(g.Subject(r, g.HamModel())))
		if n < cfg.SubjectMin || n > cfg.SubjectMax {
			t.Fatalf("subject has %d words, want [%d, %d]", n, cfg.SubjectMin, cfg.SubjectMax)
		}
	}
}

func TestSubjectWordsFromUniverse(t *testing.T) {
	g := smallGenerator(t)
	r := stats.NewRNG(43)
	u := g.Universe()
	for i := 0; i < 50; i++ {
		for _, w := range strings.Fields(g.Subject(r, g.SpamModel())) {
			if _, ok := u.SegmentOf(w); !ok {
				t.Fatalf("subject word %q not in universe", w)
			}
		}
	}
}

func TestHamAddressesUseOrgDomains(t *testing.T) {
	g := smallGenerator(t)
	r := stats.NewRNG(47)
	// All ham From addresses come from the configured organization
	// domains, which end in .com by construction.
	for i := 0; i < 30; i++ {
		from := g.HamMessage(r).From()
		if !strings.HasSuffix(from, ".com") {
			t.Fatalf("ham From = %q, want an org .com domain", from)
		}
		if !strings.Contains(from, "@") {
			t.Fatalf("ham From = %q not an address", from)
		}
	}
}

func TestURLWordShape(t *testing.T) {
	g := smallGenerator(t)
	r := stats.NewRNG(53)
	for i := 0; i < 50; i++ {
		w := g.urlWord(r, g.SpamModel())
		if !strings.HasPrefix(w, "http://") {
			t.Fatalf("urlWord = %q", w)
		}
		rest := strings.TrimPrefix(w, "http://")
		host, path, ok := strings.Cut(rest, "/")
		if !ok || path == "" {
			t.Fatalf("urlWord %q has no path", w)
		}
		if strings.Count(host, ".") != 2 {
			t.Fatalf("urlWord host %q not word.word.tld", host)
		}
	}
}

func TestPunctDistribution(t *testing.T) {
	r := stats.NewRNG(59)
	counts := map[string]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		counts[punct(r)]++
	}
	if counts["."]+counts["!"]+counts["?"] != n {
		t.Fatalf("unexpected punctuation: %v", counts)
	}
	if counts["."] < counts["!"] || counts["!"] < counts["?"] {
		t.Errorf("punctuation frequencies out of order: %v", counts)
	}
}

func TestGeneratorRejectsBadConfig(t *testing.T) {
	u := MustUniverse(SmallUniverseConfig())
	bad := DefaultConfig()
	bad.SentenceMin = 0
	if _, err := New(u, bad); err == nil {
		t.Error("bad config accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad config did not panic")
		}
	}()
	bad := DefaultConfig()
	bad.WordsPerLine = 0
	MustNew(MustUniverse(SmallUniverseConfig()), bad)
}

func TestBodyLineWrapping(t *testing.T) {
	g := smallGenerator(t)
	r := stats.NewRNG(61)
	body := g.HamMessage(r).Body
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		n := len(strings.Fields(line))
		if n > g.Config().WordsPerLine+1 { // +1: punctuation token may share the slot
			t.Fatalf("line has %d tokens: %q", n, line)
		}
	}
}
