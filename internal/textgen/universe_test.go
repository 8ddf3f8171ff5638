package textgen

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultUniverseConfigSizes(t *testing.T) {
	cfg := DefaultUniverseConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// The standard dictionary must match aspell 6.0-0's size.
	if got := cfg.CommonWords + cfg.StandardWords + cfg.FormalWords; got != 98568 {
		t.Errorf("aspell-equivalent size = %d, want 98568", got)
	}
	// The Usenet lexicon must have the paper's 90,000 words:
	// common + 59,000 standard ranks + colloquial.
	if got := cfg.CommonWords + 59000 + cfg.ColloquialWords; got != 90000 {
		t.Errorf("usenet vocabulary = %d, want 90000", got)
	}
}

func TestUniverseConfigValidate(t *testing.T) {
	bad := SmallUniverseConfig()
	bad.SpamWords = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero segment size validated")
	}
	huge := SmallUniverseConfig()
	huge.PersonalWords = maxUniverseWords
	if err := huge.Validate(); err == nil {
		t.Error("oversized universe validated")
	}
}

func TestWordForIndexUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 50000; i++ {
		w := wordForIndex(i)
		if seen[w] {
			t.Fatalf("duplicate word %q at index %d", w, i)
		}
		seen[w] = true
		if len(w) != 6 {
			t.Fatalf("word %q has length %d", w, len(w))
		}
	}
}

func TestWordForIndexInverse(t *testing.T) {
	for _, i := range []int{0, 1, 99, 100, 12345, 999999} {
		w := wordForIndex(i)
		got, ok := indexForWord(w)
		if !ok || got != i {
			t.Errorf("indexForWord(wordForIndex(%d)) = %d, %v", i, got, ok)
		}
	}
	if _, ok := indexForWord("short"); ok {
		t.Error("indexForWord accepted a 5-char word")
	}
	if _, ok := indexForWord("aaaaaa"); ok {
		t.Error("indexForWord accepted a vowel onset")
	}
}

func TestWordForIndexPanics(t *testing.T) {
	for _, i := range []int{-1, maxUniverseWords} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("wordForIndex(%d) did not panic", i)
				}
			}()
			wordForIndex(i)
		}()
	}
}

func TestUniverseSegments(t *testing.T) {
	u := MustUniverse(SmallUniverseConfig())
	cfg := SmallUniverseConfig()
	wantSizes := map[Segment]int{
		SegCommon:     cfg.CommonWords,
		SegStandard:   cfg.StandardWords,
		SegFormal:     cfg.FormalWords,
		SegColloquial: cfg.ColloquialWords,
		SegSpam:       cfg.SpamWords,
		SegPersonal:   cfg.PersonalWords,
	}
	total := 0
	seen := map[string]Segment{}
	for _, seg := range Segments() {
		words := u.Words(seg)
		if len(words) != wantSizes[seg] {
			t.Errorf("segment %v has %d words, want %d", seg, len(words), wantSizes[seg])
		}
		if u.SegmentSize(seg) != wantSizes[seg] {
			t.Errorf("SegmentSize(%v) = %d", seg, u.SegmentSize(seg))
		}
		for _, w := range words {
			if prev, dup := seen[w]; dup {
				t.Fatalf("word %q in both %v and %v", w, prev, seg)
			}
			seen[w] = seg
		}
		total += len(words)
	}
	if u.Size() != total || len(u.All()) != total {
		t.Errorf("Size() = %d, want %d", u.Size(), total)
	}
}

func TestSegmentOf(t *testing.T) {
	u := MustUniverse(SmallUniverseConfig())
	for _, seg := range Segments() {
		words := u.Words(seg)
		for _, w := range []string{words[0], words[len(words)-1]} {
			got, ok := u.SegmentOf(w)
			if !ok || got != seg {
				t.Errorf("SegmentOf(%q) = %v, %v; want %v", w, got, ok, seg)
			}
		}
	}
	if _, ok := u.SegmentOf("nonsense"); ok {
		t.Error("SegmentOf accepted a non-universe word")
	}
	// A valid-looking word beyond the configured universe.
	if _, ok := u.SegmentOf(wordForIndex(u.Size() + 10)); ok {
		t.Error("SegmentOf accepted an out-of-universe word")
	}
}

func TestSegmentString(t *testing.T) {
	names := map[Segment]string{
		SegCommon: "common", SegStandard: "standard", SegFormal: "formal",
		SegColloquial: "colloquial", SegSpam: "spam", SegPersonal: "personal",
	}
	for seg, want := range names {
		if seg.String() != want {
			t.Errorf("%d.String() = %q", seg, seg.String())
		}
	}
	if !strings.Contains(Segment(42).String(), "42") {
		t.Error("unknown segment String")
	}
}

func TestUniverseDeterministic(t *testing.T) {
	a := MustUniverse(SmallUniverseConfig())
	b := MustUniverse(SmallUniverseConfig())
	for i := range a.All() {
		if a.All()[i] != b.All()[i] {
			t.Fatal("universes differ between constructions")
		}
	}
}

// Property: wordForIndex is injective and produces tokenizer-safe
// words (length 6, lowercase ASCII letters).
func TestQuickWordProperties(t *testing.T) {
	f := func(aRaw, bRaw uint32) bool {
		a := int(aRaw) % maxUniverseWords
		b := int(bRaw) % maxUniverseWords
		wa, wb := wordForIndex(a), wordForIndex(b)
		if (a == b) != (wa == wb) {
			return false
		}
		for _, w := range []string{wa, wb} {
			if len(w) != 6 {
				return false
			}
			for i := 0; i < len(w); i++ {
				if w[i] < 'a' || w[i] > 'z' {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
