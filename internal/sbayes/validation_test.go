package sbayes

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/tokenize"
)

// randomStream builds a stream of n distinct tokens drawn from a
// vocabulary of the given size; a small vocabulary makes messages
// share tokens, so scores tie the way RONI trial scores do.
func randomStream(r *stats.RNG, n, vocab int) *tokenize.TokenStream {
	seen := map[string]bool{}
	var toks []string
	for len(toks) < n {
		t := fmt.Sprintf("tok%04d", r.Intn(vocab))
		if !seen[t] {
			seen[t] = true
			toks = append(toks, t)
		}
	}
	return tokenize.StreamFromTokens(toks)
}

// trialFixture is a RONI-trial-shaped filter: trained on a few
// messages, with a validation set drawn from a larger vocabulary, so
// the set holds both known and never-seen tokens.
func trialFixture(r *stats.RNG, opts Options, train, val int) (*Filter, []*tokenize.TokenStream) {
	f := New(opts, nil)
	for i := 0; i < train; i++ {
		f.LearnTokenStream(randomStream(r, 20+r.Intn(60), 400), i%2 == 0, 1)
	}
	streams := make([]*tokenize.TokenStream, val)
	for i := range streams {
		streams[i] = randomStream(r, 1+r.Intn(120), 600)
	}
	return f, streams
}

// referenceScores scores the streams the unbound way: learn q, score
// each stream with ScoreTokenStream, unlearn q.
func referenceScores(t *testing.T, f *Filter, streams []*tokenize.TokenStream, q *tokenize.TokenStream, qSpam bool) []float64 {
	t.Helper()
	if q != nil {
		f.LearnTokenStream(q, qSpam, 1)
	}
	out := make([]float64, len(streams))
	for i, ts := range streams {
		out[i] = f.ScoreTokenStream(ts)
	}
	if q != nil {
		if err := f.UnlearnTokenStream(q, qSpam, 1); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// checkBound compares a bound evaluation with the reference bit for
// bit, and its labels with the reference labels.
func checkBound(t *testing.T, f *Filter, v *validationSet, streams []*tokenize.TokenStream, q *tokenize.TokenStream, qSpam bool) {
	t.Helper()
	want := referenceScores(t, f, streams, q, qSpam)
	labels := make([]engine.Label, len(streams))
	v.ClassifyWith(q, qSpam, labels)
	for i := range want {
		if math.Float64bits(v.scores[i]) != math.Float64bits(want[i]) {
			t.Fatalf("stream %d: bound score %v, ScoreTokenStream %v", i, v.scores[i], want[i])
		}
		if labels[i] != f.opts.LabelFor(want[i]) {
			t.Fatalf("stream %d: bound label %v, want %v", i, labels[i], f.opts.LabelFor(want[i]))
		}
	}
}

// clueShapes are the option shapes that change which clues enter δ(E).
var clueShapes = map[string]func(*Options){
	"default":         func(*Options) {},
	"truncated":       func(o *Options) { o.MaxDiscriminators = 7 },
	"one clue":        func(o *Options) { o.MaxDiscriminators = 1 },
	"every token":     func(o *Options) { o.MinProbStrength = 0 },
	"no prior weight": func(o *Options) { o.UnknownWordStrength = 0 },
	"skewed prior":    func(o *Options) { o.UnknownWordProb = 0.2; o.UnknownWordStrength = 3 },
}

// TestValidationSetMatchesLearnAndScore is the differential proof of
// the bound path: for every option shape that changes which clues
// enter δ(E), and for queries of either label that share all, some or
// none of the set's tokens, a bound evaluation equals learning the
// query, scoring each stream, and unlearning it — bit for bit.
func TestValidationSetMatchesLearnAndScore(t *testing.T) {
	for name, shape := range clueShapes {
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions()
			shape(&opts)
			for seed := uint64(1); seed <= 8; seed++ {
				r := stats.NewRNG(seed)
				f, streams := trialFixture(r, opts, 20, 50)
				v := f.BindValidation(streams).(*validationSet)
				checkBound(t, f, v, streams, nil, false)
				for i := 0; i < 6; i++ {
					checkBound(t, f, v, streams, randomStream(r, 1+r.Intn(200), 900), i%2 == 0)
				}
				checkBound(t, f, v, streams, streams[0], true)
				checkBound(t, f, v, streams, randomStream(r, 300, 400), false)
				checkBound(t, f, v, streams, tokenize.StreamFromTokens(nil), true)
			}
		})
	}
}

// TestValidationSetUntrainedFilter covers the zero-total corner: no
// message of either class trained, before and after the query.
func TestValidationSetUntrainedFilter(t *testing.T) {
	r := stats.NewRNG(3)
	f, streams := trialFixture(r, DefaultOptions(), 0, 10)
	v := f.BindValidation(streams).(*validationSet)
	checkBound(t, f, v, streams, nil, false)
	checkBound(t, f, v, streams, randomStream(r, 50, 600), true)
	checkBound(t, f, v, streams, randomStream(r, 50, 600), false)
}

// TestValidationSetSeesLaterLearning proves the set reads live counts:
// tokens unseen when it was bound are scored once the filter learns
// them.
func TestValidationSetSeesLaterLearning(t *testing.T) {
	r := stats.NewRNG(4)
	f, streams := trialFixture(r, DefaultOptions(), 10, 30)
	v := f.BindValidation(streams).(*validationSet)
	for i := 0; i < 5; i++ {
		f.LearnTokenStream(streams[i], i%2 == 0, 2)
		f.LearnTokenStream(randomStream(r, 80, 900), i%2 == 1, 1)
		checkBound(t, f, v, streams, nil, false)
		checkBound(t, f, v, streams, randomStream(r, 80, 900), true)
	}
}

// TestValidationSetSeesCountsMoveUnderEqualTotals: learning one message
// and unlearning another of the same label leaves the totals where they
// were but moves the counts, and the next evaluation of either label
// must see them move.
func TestValidationSetSeesCountsMoveUnderEqualTotals(t *testing.T) {
	r := stats.NewRNG(9)
	f, streams := trialFixture(r, DefaultOptions(), 10, 30)
	gone := randomStream(r, 80, 600)
	f.LearnTokenStream(gone, false, 1)
	v := f.BindValidation(streams).(*validationSet)
	q := randomStream(r, 80, 600)
	checkBound(t, f, v, streams, q, true)
	checkBound(t, f, v, streams, q, false)
	nspam, nham := f.Counts()
	f.LearnTokenStream(streams[0], false, 1)
	if err := f.UnlearnTokenStream(gone, false, 1); err != nil {
		t.Fatal(err)
	}
	if s, h := f.Counts(); s != nspam || h != nham {
		t.Fatalf("totals moved: (%d, %d) -> (%d, %d)", nspam, nham, s, h)
	}
	checkBound(t, f, v, streams, q, true)
	checkBound(t, f, v, streams, q, false)
}

// TestValidationSetLeavesFilterUnchanged: evaluating with a query
// trains nothing — counts, vocabulary and every score stay put.
func TestValidationSetLeavesFilterUnchanged(t *testing.T) {
	r := stats.NewRNG(5)
	f, streams := trialFixture(r, DefaultOptions(), 20, 20)
	v := f.BindValidation(streams)
	before := referenceScores(t, f, streams, nil, false)
	nspam, nham := f.Counts()
	vocab, syms := f.VocabSize(), f.Symbols().Len()
	labels := make([]engine.Label, len(streams))
	for i := 0; i < 10; i++ {
		v.ClassifyWith(randomStream(r, 150, 5000), i%2 == 0, labels)
	}
	if s, h := f.Counts(); s != nspam || h != nham {
		t.Fatalf("counts (%d, %d) -> (%d, %d)", nspam, nham, s, h)
	}
	if f.VocabSize() != vocab || f.Symbols().Len() != syms {
		t.Fatalf("vocabulary %d/%d symbols -> %d/%d", vocab, syms, f.VocabSize(), f.Symbols().Len())
	}
	for i, s := range referenceScores(t, f, streams, nil, false) {
		if s != before[i] {
			t.Fatalf("stream %d score %v -> %v", i, before[i], s)
		}
	}
}

// TestValidationSetPanicsAfterLoad: Load swaps the symbol table the
// set's ids index, so using the set afterwards is a programmer error.
func TestValidationSetPanicsAfterLoad(t *testing.T) {
	r := stats.NewRNG(6)
	f, streams := trialFixture(r, DefaultOptions(), 10, 5)
	v := f.BindValidation(streams)
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := f.Load(&buf); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("ClassifyWith after Load did not panic")
		}
	}()
	v.ClassifyWith(nil, false, make([]engine.Label, len(streams)))
}

// TestValidationSetAllocFree pins the probe cost: once bound, an
// evaluation allocates nothing, whatever the query.
func TestValidationSetAllocFree(t *testing.T) {
	r := stats.NewRNG(7)
	f, streams := trialFixture(r, DefaultOptions(), 20, 50)
	v := f.BindValidation(streams)
	labels := make([]engine.Label, len(streams))
	queries := []*tokenize.TokenStream{randomStream(r, 200, 900), randomStream(r, 40, 5000)}
	v.ClassifyWith(queries[0], true, labels) // warm the group map
	i := 0
	if avg := testing.AllocsPerRun(100, func() {
		v.ClassifyWith(queries[i%len(queries)], i%2 == 0, labels)
		i++
	}); avg != 0 {
		t.Fatalf("ClassifyWith allocates %.1f times per evaluation, want 0", avg)
	}
}

// TestScoreTokenStreamAllocFree pins the serving hot path: scoring a
// tokenized message allocates nothing once the clue pool is warm.
func TestScoreTokenStreamAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	r := stats.NewRNG(8)
	f, streams := trialFixture(r, DefaultOptions(), 40, 1)
	want := f.ScoreTokenStream(streams[0])
	if avg := testing.AllocsPerRun(200, func() {
		if got := f.ScoreTokenStream(streams[0]); got != want {
			t.Fatalf("score changed across runs: %v != %v", got, want)
		}
	}); avg != 0 {
		t.Fatalf("ScoreTokenStream allocates %.1f times per message, want 0", avg)
	}
}
