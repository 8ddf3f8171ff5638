package core

import (
	"testing"

	"repro/internal/lexicon"
	"repro/internal/sbayes"
	"repro/internal/stats"
	"repro/internal/tokenize"
)

func TestBuildChunkedPartition(t *testing.T) {
	u := testUniverse()
	a := NewDictionaryAttack(lexicon.Aspell(u))
	for _, n := range []int{1, 3, 10} {
		msgs := a.BuildChunked(n)
		if len(msgs) != n {
			t.Fatalf("n=%d: %d messages", n, len(msgs))
		}
		tok := tokenize.Default()
		seen := map[string]int{}
		for _, m := range msgs {
			if len(m.Header) != 0 {
				t.Error("chunk has a header")
			}
			ts := tok.Stream(m)
			for i := 0; i < ts.Len(); i++ {
				seen[string(ts.At(i))]++
			}
		}
		// The chunks partition the lexicon: every word exactly once.
		if len(seen) != a.Lexicon().Len() {
			t.Fatalf("n=%d: %d distinct words, want %d", n, len(seen), a.Lexicon().Len())
		}
		for w, c := range seen {
			if c != 1 {
				t.Fatalf("word %q in %d chunks", w, c)
			}
		}
	}
}

func TestBuildChunkedDegenerateArgs(t *testing.T) {
	u := testUniverse()
	a := NewDictionaryAttack(lexicon.Aspell(u))
	if got := len(a.BuildChunked(0)); got != 1 {
		t.Errorf("n=0 gave %d messages", got)
	}
	huge := a.BuildChunked(a.Lexicon().Len() * 2)
	if len(huge) != a.Lexicon().Len() {
		t.Errorf("oversized n gave %d messages", len(huge))
	}
}

func TestChunkedWeakerThanReplicated(t *testing.T) {
	// Same message count, same total vocabulary: the replicated
	// attack (whole dictionary per email) must poison strictly more
	// than the chunked one (dictionary split across emails) — the
	// stealth/strength trade-off of §4.2.
	g := testGenerator(t)
	r := stats.NewRNG(71)
	train := g.Corpus(r, 300, 300)
	base := sbayes.NewDefault()
	for _, e := range train.Examples {
		base.Learn(e.Msg, e.Spam)
	}
	msgs := make([]*tokenize.TokenStream, 0, 50)
	tok := tokenize.Default()
	for i := 0; i < 50; i++ {
		msgs = append(msgs, tok.Stream(g.HamMessage(r)))
	}

	attack := NewDictionaryAttack(lexicon.Optimal(g.Universe()))
	const n = 30

	meanScore := func(f *sbayes.Filter) float64 {
		total := 0.0
		for _, m := range msgs {
			total += f.ScoreTokenStream(m)
		}
		return total / float64(len(msgs))
	}

	replicated := base.Clone()
	replicated.LearnWeighted(attack.BuildAttack(r), true, n)
	repScore := meanScore(replicated)

	chunked := base.Clone()
	for _, m := range attack.BuildChunked(n) {
		chunked.Learn(m, true)
	}
	chunkScore := meanScore(chunked)

	if repScore <= chunkScore {
		t.Errorf("replicated attack (%v) not stronger than chunked (%v)", repScore, chunkScore)
	}
	// But chunking still hurts relative to no attack.
	baseScore := meanScore(base)
	if chunkScore <= baseScore {
		t.Errorf("chunked attack had no effect: %v vs baseline %v", chunkScore, baseScore)
	}
}
