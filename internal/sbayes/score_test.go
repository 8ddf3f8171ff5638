package sbayes

// Bit-exact pins of ScoreTokenStream. The reference scorer below is
// the scoring path written the obvious way — score every distinct
// token, sort the clues with a total order, truncate, sum the
// logarithms — and ScoreTokenStream must match it bit for bit on
// random filters, in every option shape that changes which clues enter
// δ(E), and on tie-heavy attack payloads. The golden file pins the
// scores (and the stream digests the admission layer keys on) of a
// fixed textgen corpus, so neither can drift unnoticed; a deliberate
// change regenerates it with
//
//	go test ./internal/sbayes -run TestScoreDigestGolden -update

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/textgen"
	"repro/internal/tokenize"
)

// oracleScore is the reference scorer. Clues are ordered by
// descending distance from 0.5, then descending score, then token
// text, so the order is total and the summation sequence is fixed.
func oracleScore(f *Filter, ts *tokenize.TokenStream) float64 {
	type oracleClue struct {
		token       string
		score, dist float64
	}
	var clues []oracleClue
	for i := 0; i < ts.Len(); i++ {
		tok := string(ts.At(i))
		s := f.TokenScore(tok)
		if d := math.Abs(s - 0.5); d >= f.opts.MinProbStrength {
			clues = append(clues, oracleClue{token: tok, score: s, dist: d})
		}
	}
	slices.SortFunc(clues, func(a, b oracleClue) int {
		switch {
		case a.dist != b.dist:
			if a.dist > b.dist {
				return -1
			}
			return 1
		case a.score != b.score:
			if a.score > b.score {
				return -1
			}
			return 1
		}
		return strings.Compare(a.token, b.token)
	})
	if len(clues) > f.opts.MaxDiscriminators {
		clues = clues[:f.opts.MaxDiscriminators]
	}
	var lnF, lnNotF float64
	for _, c := range clues {
		lf, lnf := clueLogs(c.score)
		lnF += lf
		lnNotF += lnf
	}
	return fisher(lnF, lnNotF, len(clues))
}

// checkOracle fails unless ScoreTokenStream equals the reference
// scorer bit for bit on every stream.
func checkOracle(t *testing.T, f *Filter, streams ...*tokenize.TokenStream) {
	t.Helper()
	for i, ts := range streams {
		got, want := f.ScoreTokenStream(ts), oracleScore(f, ts)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("stream %d (%d tokens): ScoreTokenStream %v (%016x), reference %v (%016x)",
				i, ts.Len(), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestScoreTokenStreamMatchesOracle runs the differential check over
// random filters and streams in every clue-selection option shape, and
// with both the strength band and the prior weight at zero.
func TestScoreTokenStreamMatchesOracle(t *testing.T) {
	shapes := map[string]func(*Options){
		"every token, no prior weight": func(o *Options) { o.MinProbStrength = 0; o.UnknownWordStrength = 0 },
	}
	for name, shape := range clueShapes {
		shapes[name] = shape
	}
	for name, shape := range shapes {
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions()
			shape(&opts)
			for seed := uint64(1); seed <= 8; seed++ {
				r := stats.NewRNG(seed)
				f, streams := trialFixture(r, opts, 20, 50)
				checkOracle(t, f, streams...)
				for i := 0; i < 20; i++ {
					checkOracle(t, f, randomStream(r, 1+r.Intn(400), 900))
				}
				checkOracle(t, f, tokenize.StreamFromTokens(nil))
			}
		})
	}
}

// TestScoreTokenStreamMatchesOracleOnTies covers the ties a dictionary
// attack produces: a payload trained at weight > 1 gives hundreds of
// tokens one identical score, its mirror trained as ham gives as many
// at the same distance below 0.5, and messages drawing on both cross
// the MaxDiscriminators cut inside those runs.
func TestScoreTokenStreamMatchesOracleOnTies(t *testing.T) {
	dict := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%04d", prefix, i)
		}
		return out
	}
	spamDict, hamDict := dict("spamdict", 400), dict("hamdict", 400)
	for _, w := range []int{2, 7, 40} {
		for _, maxDisc := range []int{150, 7, 1} {
			t.Run(fmt.Sprintf("weight=%d/max=%d", w, maxDisc), func(t *testing.T) {
				opts := DefaultOptions()
				opts.MaxDiscriminators = maxDisc
				r := stats.NewRNG(uint64(w*1000 + maxDisc))
				f := New(opts, nil)
				for i := 0; i < 10; i++ {
					f.LearnTokenStream(randomStream(r, 30, 200), i%2 == 0, 1)
				}
				learnWords(f, spamDict, true, w)
				learnWords(f, hamDict, false, w)
				learnWords(f, spamDict[:100], true, w) // a second tie level
				for i := 0; i < 30; i++ {
					var toks []string
					toks = append(toks, spamDict[r.Intn(300):][:1+r.Intn(100)]...)
					toks = append(toks, hamDict[r.Intn(300):][:1+r.Intn(100)]...)
					for j := r.Intn(40); j > 0; j-- {
						toks = append(toks, fmt.Sprintf("tok%04d", r.Intn(300)))
					}
					checkOracle(t, f, tokenize.StreamFromTokens(toks))
				}
				checkOracle(t, f, tokenize.StreamFromTokens(spamDict), tokenize.StreamFromTokens(hamDict),
					tokenize.StreamFromTokens(append(append([]string{}, hamDict...), spamDict...)))
			})
		}
	}
}

// oracleCombine is the reference summation over bare clue scores: δ(E)
// in descending distance from 0.5, then descending score, cut at
// maxDisc.
func oracleCombine(maxDisc int, scores []float64) float64 {
	s := slices.Clone(scores)
	slices.SortFunc(s, func(a, b float64) int {
		return compareStrength(math.Abs(a-0.5), a, math.Abs(b-0.5), b)
	})
	var lnF, lnNotF float64
	for _, x := range s[:min(len(s), maxDisc)] {
		lf, lnf := clueLogs(x)
		lnF += lf
		lnNotF += lnf
	}
	return fisher(lnF, lnNotF, min(len(s), maxDisc))
}

// TestCombineSortedMatchesOracleOnDistanceRuns covers scores that
// token counts rarely produce: distinct scores at one distance from
// 0.5. Below 0.25 the distance 0.5 − f(w) rounds, so neighbouring
// floats there can share it, and such a run must be taken in
// descending score; a score s in [0.25, 0.5) and 1 − s are exactly
// as far from 0.5, and the higher goes first. MaxDiscriminators cuts
// the merge at every position.
func TestCombineSortedMatchesOracleOnDistanceRuns(t *testing.T) {
	r := stats.NewRNG(1)
	for trial := 0; trial < 5000; trial++ {
		var scores []float64
		for len(scores) < 2+r.Intn(20) {
			s := 0.125 + 0.125*r.Float64()
			if next := math.Nextafter(s, 1); 0.5-s == 0.5-next {
				scores = append(scores, s, next)
			}
		}
		for n := r.Intn(30); n > 0; n-- {
			s := 0.5 * r.Float64()
			scores = append(scores, s, 0.5+0.5*r.Float64())
			if s >= 0.25 {
				scores = append(scores, 1-s)
			}
		}
		opts := DefaultOptions()
		opts.MinProbStrength = 0
		opts.MaxDiscriminators = 1 + r.Intn(len(scores))
		f := New(opts, nil)
		slices.Sort(scores)
		got, want := f.combineSorted(scores), oracleCombine(opts.MaxDiscriminators, scores)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (%d scores, cut at %d): combineSorted %v, reference %v",
				trial, len(scores), opts.MaxDiscriminators, got, want)
		}
	}
}

// TestScoreDigestGolden pins, for 200 messages of the serving daemon's
// mail universe scored on a 300 ham + 300 spam filter, each message's
// token-stream digest and the exact bits of its score.
func TestScoreDigestGolden(t *testing.T) {
	u, err := textgen.NewUniverse(textgen.SmallUniverseConfig())
	if err != nil {
		t.Fatal(err)
	}
	g, err := textgen.New(u, textgen.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(16)
	f := NewDefault()
	for _, ex := range g.Corpus(r, 300, 300).Examples {
		f.Learn(ex.Msg, ex.Spam)
	}
	var got bytes.Buffer
	for i := 0; i < 200; i++ {
		ts := f.Tokenizer().Stream(g.Message(r, i%2 == 1))
		fmt.Fprintf(&got, "%016x %016x\n", ts.Digest(), math.Float64bits(f.ScoreTokenStream(ts)))
	}
	path := filepath.Join("testdata", "score_digest.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d golden lines, want %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("message %d: digest and score bits %q, golden %q", i, gotLines[i], wantLines[i])
		}
	}
}
