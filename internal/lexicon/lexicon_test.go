package lexicon

import (
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/textgen"
)

func smallUniverse() *textgen.Universe {
	return textgen.MustUniverse(textgen.SmallUniverseConfig())
}

func TestNewDeduplicates(t *testing.T) {
	l := New("test", []string{"bb b", "aaa", "bb b", "", "ccc"})
	if l.Len() != 3 {
		t.Errorf("Len = %d, want 3", l.Len())
	}
	if !l.Contains("aaa") || l.Contains("") || l.Contains("zzz") {
		t.Error("Contains misbehaved")
	}
	if l.Words()[0] != "bb b" {
		t.Error("order not preserved")
	}
	if l.Name() != "test" {
		t.Errorf("Name = %q", l.Name())
	}
}

func TestOverlap(t *testing.T) {
	a := New("a", []string{"x", "y", "z"})
	b := New("b", []string{"y", "z", "w", "v"})
	if got := a.Overlap(b); got != 2 {
		t.Errorf("Overlap = %d, want 2", got)
	}
	if got := b.Overlap(a); got != 2 {
		t.Errorf("reverse Overlap = %d, want 2", got)
	}
	if got := a.Overlap(New("empty", nil)); got != 0 {
		t.Errorf("empty Overlap = %d", got)
	}
}

func TestCoverage(t *testing.T) {
	l := New("l", []string{"aaa", "bbb"})
	toks := []string{"aaa", "aaa", "ccc", "bbb"}
	if got := l.Coverage(toks); got != 0.75 {
		t.Errorf("Coverage = %v, want 0.75", got)
	}
	if got := l.Coverage(nil); got != 0 {
		t.Errorf("empty Coverage = %v", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	l := New("rt", []string{"one", "two", "three"})
	var buf strings.Builder
	if err := l.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load("rt", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 || !got.Contains("two") {
		t.Errorf("round trip = %v", got.Words())
	}
	if got.Words()[0] != "one" {
		t.Error("order lost")
	}
}

func TestAspellComposition(t *testing.T) {
	u := smallUniverse()
	asp := Aspell(u)
	wantLen := u.SegmentSize(textgen.SegCommon) + u.SegmentSize(textgen.SegStandard) + u.SegmentSize(textgen.SegFormal)
	if asp.Len() != wantLen {
		t.Errorf("aspell size = %d, want %d", asp.Len(), wantLen)
	}
	// Contains standard but not colloquial/spam/personal words.
	if !asp.Contains(u.Words(textgen.SegStandard)[0]) {
		t.Error("aspell missing standard word")
	}
	if !asp.Contains(u.Words(textgen.SegFormal)[0]) {
		t.Error("aspell missing formal word")
	}
	for _, seg := range []textgen.Segment{textgen.SegColloquial, textgen.SegSpam, textgen.SegPersonal} {
		if asp.Contains(u.Words(seg)[0]) {
			t.Errorf("aspell contains %v word", seg)
		}
	}
	if asp.Name() != "aspell" {
		t.Errorf("name = %q", asp.Name())
	}
}

func TestAspellDefaultUniverseSize(t *testing.T) {
	if testing.Short() {
		t.Skip("default universe build in -short mode")
	}
	u := textgen.MustUniverse(textgen.DefaultUniverseConfig())
	if got := Aspell(u).Len(); got != 98568 {
		t.Errorf("default aspell size = %d, want 98568 (GNU aspell 6.0-0)", got)
	}
}

func TestOptimal(t *testing.T) {
	u := smallUniverse()
	opt := Optimal(u)
	if opt.Len() != u.Size() {
		t.Errorf("optimal size = %d, want %d", opt.Len(), u.Size())
	}
	for _, seg := range textgen.Segments() {
		if !opt.Contains(u.Words(seg)[0]) {
			t.Errorf("optimal missing %v word", seg)
		}
	}
}

func TestUsenetTopK(t *testing.T) {
	tokens := []string{"ccc", "aaa", "bbb", "aaa", "ccc", "aaa", "ddd"}
	l := UsenetTopK(tokens, 2)
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	if l.Words()[0] != "aaa" || l.Words()[1] != "ccc" {
		t.Errorf("top-2 = %v", l.Words())
	}
	// k beyond vocabulary size.
	if got := UsenetTopK(tokens, 100).Len(); got != 4 {
		t.Errorf("over-k Len = %d, want 4", got)
	}
}

func TestUsenetTopKTieBreak(t *testing.T) {
	a := UsenetTopK([]string{"bbb", "aaa"}, 1)
	b := UsenetTopK([]string{"aaa", "bbb"}, 1)
	if a.Words()[0] != "aaa" || b.Words()[0] != "aaa" {
		t.Error("tie-break not alphabetical/deterministic")
	}
}

func TestUsenetFromGeneratorShape(t *testing.T) {
	u := smallUniverse()
	g := textgen.MustNew(u, textgen.DefaultConfig())
	r := stats.NewRNG(21)
	// Scaled-down: universe usenet vocab = 50 common + 590 standard
	// ranks + 290 colloquial = 930 words; sample enough to saturate.
	k := 900
	l := UsenetFromGenerator(g, r, 400000, k)
	if l.Len() != k {
		t.Fatalf("usenet lexicon size = %d, want %d", l.Len(), k)
	}
	asp := Aspell(u)
	overlap := l.Overlap(asp)
	// Overlap must be common + (most of the capped standard ranks);
	// colloquial words must NOT be in aspell.
	usenetRanks := textgen.UsenetStandardRanks(u)
	maxOverlap := u.SegmentSize(textgen.SegCommon) + usenetRanks
	if overlap > maxOverlap {
		t.Errorf("overlap %d exceeds structural bound %d", overlap, maxOverlap)
	}
	if overlap < maxOverlap*8/10 {
		t.Errorf("overlap %d below 80%% of bound %d — corpus not saturated?", overlap, maxOverlap)
	}
	// And the lexicon must contain colloquial words aspell lacks.
	collo := 0
	for _, w := range l.Words() {
		if seg, ok := u.SegmentOf(w); ok && seg == textgen.SegColloquial {
			collo++
		}
	}
	if collo < u.SegmentSize(textgen.SegColloquial)/2 {
		t.Errorf("usenet lexicon has only %d colloquial words", collo)
	}
}

func TestUsenetName(t *testing.T) {
	if got := usenetName(90000); got != "usenet-90k" {
		t.Errorf("usenetName(90000) = %q", got)
	}
	if got := usenetName(25500); got != "usenet-26k" {
		t.Errorf("usenetName(25500) = %q", got)
	}
}
