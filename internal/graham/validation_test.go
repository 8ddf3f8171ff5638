package graham

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/tokenize"
)

// randomStream builds a stream of n token occurrences drawn with
// replacement from a vocabulary of the given size, so tokens repeat
// within a message (Graham counts them with multiplicity) and recur
// across messages.
func randomStream(r *stats.RNG, n, vocab int) *tokenize.TokenStream {
	toks := make([]string, n)
	for i := range toks {
		toks[i] = fmt.Sprintf("tok%04d", r.Intn(vocab))
	}
	return tokenize.StreamFromTokens(toks)
}

// trialFixture is a RONI-trial-shaped filter: trained on a few
// messages, with a validation set drawn from a larger vocabulary, so
// the set holds both known and never-seen tokens.
func trialFixture(r *stats.RNG, opts Options, train, val int) (*Filter, []*tokenize.TokenStream) {
	f := New(opts, nil)
	for i := 0; i < train; i++ {
		f.LearnTokenStream(randomStream(r, 20+r.Intn(80), 300), i%2 == 0, 1)
	}
	streams := make([]*tokenize.TokenStream, val)
	for i := range streams {
		streams[i] = randomStream(r, 1+r.Intn(150), 500)
	}
	return f, streams
}

// referenceScores scores the streams the direct way: learn q, score
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

// checkBound proves the bound set scores every stream bit for bit as
// the reference does. The set reports labels only, so each stream is
// labeled twice: with the spam cutoff at the reference score (ham, so
// the bound score is at most it) and one ulp below (spam, so it is
// above the next lower float).
func checkBound(t *testing.T, f *Filter, v engine.ValidationSet, streams []*tokenize.TokenStream, q *tokenize.TokenStream, qSpam bool) {
	t.Helper()
	want := referenceScores(t, f, streams, q, qSpam)
	cutoff := f.opts.SpamCutoff
	defer func() { f.opts.SpamCutoff = cutoff }()
	labels := make([]engine.Label, len(streams))
	for i, s := range want {
		f.opts.SpamCutoff = s
		v.ClassifyWith(q, qSpam, labels)
		atCutoff := labels[i]
		f.opts.SpamCutoff = math.Nextafter(s, -1)
		v.ClassifyWith(q, qSpam, labels)
		if atCutoff != engine.Ham || labels[i] != engine.Spam {
			t.Fatalf("stream %d: bound score is not the reference %v (labels %v at it, %v one ulp below)", i, s, atCutoff, labels[i])
		}
	}
}

// optionShapes are the option shapes that change which tokens enter
// the product or how a token scores.
var optionShapes = map[string]func(*Options){
	"default":    func(*Options) {},
	"one token":  func(o *Options) { o.MaxTokens = 1 },
	"wide":       func(o *Options) { o.MaxTokens = 60 },
	"no floor":   func(o *Options) { o.MinOccurrences = 1 },
	"ham weight": func(o *Options) { o.HamWeight = 5; o.UnknownProb = 0.3 },
}

// TestValidationSetMatchesLearnAndScore is the differential proof of
// the bound path: for every option shape, and for queries of either
// label that share all, some or none of the set's tokens, a bound
// evaluation equals learning the query, scoring each stream, and
// unlearning it — bit for bit.
func TestValidationSetMatchesLearnAndScore(t *testing.T) {
	for name, shape := range optionShapes {
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions()
			shape(&opts)
			for seed := uint64(1); seed <= 4; seed++ {
				r := stats.NewRNG(seed)
				f, streams := trialFixture(r, opts, 20, 30)
				streams = append(streams, tokenize.StreamFromTokens(nil))
				v := f.BindValidation(streams)
				checkBound(t, f, v, streams, nil, false)
				for i := 0; i < 4; i++ {
					checkBound(t, f, v, streams, randomStream(r, 1+r.Intn(300), 800), i%2 == 0)
				}
				checkBound(t, f, v, streams, streams[0], true)
				checkBound(t, f, v, streams, randomStream(r, 200, 100), false)
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
	v := f.BindValidation(streams)
	checkBound(t, f, v, streams, nil, false)
	checkBound(t, f, v, streams, randomStream(r, 50, 500), true)
	checkBound(t, f, v, streams, randomStream(r, 50, 500), false)
}

// TestValidationSetSeesLaterLearning proves the set reads live counts:
// tokens unseen when it was bound are scored once the filter learns
// them.
func TestValidationSetSeesLaterLearning(t *testing.T) {
	r := stats.NewRNG(4)
	f, streams := trialFixture(r, DefaultOptions(), 10, 20)
	v := f.BindValidation(streams)
	for i := 0; i < 5; i++ {
		f.LearnTokenStream(streams[i], i%2 == 0, 2)
		f.LearnTokenStream(randomStream(r, 80, 800), i%2 == 1, 1)
		checkBound(t, f, v, streams, nil, false)
		checkBound(t, f, v, streams, randomStream(r, 80, 800), true)
	}
}

// TestValidationSetLeavesFilterUnchanged: evaluating with a query
// trains nothing — counts, vocabulary, the symbol table and every
// score stay put, however many novel tokens the query carries.
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
	queries := []*tokenize.TokenStream{randomStream(r, 200, 800), randomStream(r, 40, 5000)}
	i := 0
	if avg := testing.AllocsPerRun(100, func() {
		v.ClassifyWith(queries[i%2], i%2 == 0, labels)
		i++
	}); avg != 0 {
		t.Fatalf("ClassifyWith allocates %.1f times, want 0", avg)
	}
}
