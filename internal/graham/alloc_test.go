package graham

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/mail"
)

// allocFixture trains a filter over a synthetic vocabulary and returns
// it with one scoring message large enough to exercise the top-K
// selection (more distinct tokens than MaxTokens).
func allocFixture(tb testing.TB) (*Filter, *mail.Message) {
	tb.Helper()
	f := NewDefault()
	r := rand.New(rand.NewSource(7))
	word := func() string { return fmt.Sprintf("word%03d", r.Intn(400)) }
	body := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString(word())
			sb.WriteByte(' ')
		}
		return sb.String()
	}
	for i := 0; i < 40; i++ {
		f.Learn(mkMsg(body(60)), i%2 == 0)
	}
	return f, mkMsg(body(120))
}

// TestScoreTokenStreamAllocFree pins the hot-path fix: scoring a
// tokenized message must not allocate — not per token (the Sym-keyed
// lookup replaced per-token heap strings) and not per message (the
// bounded selection buffer replaced the n-sized sort slice).
func TestScoreTokenStreamAllocFree(t *testing.T) {
	f, m := allocFixture(t)
	ts := f.Tokenizer().Stream(m)
	want := f.ScoreTokenStream(ts) // warm any lazy state
	if avg := testing.AllocsPerRun(200, func() {
		if got := f.ScoreTokenStream(ts); got != want {
			t.Fatalf("score changed across runs: %v != %v", got, want)
		}
	}); avg != 0 {
		t.Fatalf("ScoreTokenStream allocates %.1f times per message, want 0", avg)
	}
}

// TestScoreTokenStreamMatchesTokens proves the selection path picks
// exactly the candidates sort-then-truncate picks: the stream scorer
// must agree with scoreTokensBySort on the same distinct tokens.
func TestScoreTokenStreamMatchesTokens(t *testing.T) {
	f, m := allocFixture(t)
	ts := f.Tokenizer().Stream(m)
	tokens := make([]string, ts.Len())
	for i := range tokens {
		tokens[i] = string(ts.At(i))
	}
	stream := f.ScoreTokenStream(ts)
	if ref := scoreTokensBySort(f, tokens); stream != ref {
		t.Fatalf("ScoreTokenStream %v != sort-then-truncate %v", stream, ref)
	}
}

// scoreTokensBySort is the reference scorer for the selection path:
// it scores every token, sorts all candidates in candLess order,
// truncates to MaxTokens and takes the naive Bayes product.
func scoreTokensBySort(f *Filter, tokens []string) float64 {
	if len(tokens) == 0 {
		return f.opts.UnknownProb
	}
	cands := make([]cand, 0, len(tokens))
	for _, t := range tokens {
		p := f.TokenProb(t)
		cands = append(cands, cand{p: p, dist: math.Abs(p - 0.5), tok: t})
	}
	sort.Slice(cands, func(i, j int) bool { return candLess(cands[i], cands[j]) })
	if len(cands) > f.opts.MaxTokens {
		cands = cands[:f.opts.MaxTokens]
	}
	return bayesProduct(cands)
}

// BenchmarkScoreTokenStream measures the per-message stream scoring
// cost; allocs/op is the satellite's regression gate (was 2 allocs/op
// through the sort path, now 0).
func BenchmarkScoreTokenStream(b *testing.B) {
	f, m := allocFixture(b)
	ts := f.Tokenizer().Stream(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ScoreTokenStream(ts)
	}
}
