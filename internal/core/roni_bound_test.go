package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/lexicon"
	"repro/internal/mail"
	"repro/internal/sbayes"
	"repro/internal/stats"
	"repro/internal/tokenize"
)

// unbound is a SpamBayes filter without ValidationBinder, so a RONI
// over it measures queries the unbound way: learn the query's stream,
// re-score the validation set, unlearn it.
type unbound struct{ engine.Classifier }

func newUnbound() engine.Classifier { return unbound{sbayes.NewDefault()} }

// TestRONIBoundMatchesLearnUnlearn proves the bound probe measures
// exactly what learn-and-unlearn measures: two evaluators sampled
// identically from one pool, one binding its validation sets and one
// not, report identical impacts for organic mail of both labels and
// for dictionary and focused attack mail.
func TestRONIBoundMatchesLearnUnlearn(t *testing.T) {
	g := testGenerator(t)
	r := stats.NewRNG(21)
	pool := g.Corpus(r, 200, 200)
	bound, err := NewRONIBackend(DefaultRONIConfig(), pool, func() engine.Classifier { return sbayes.NewDefault() }, stats.NewRNG(22))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewRONIBackend(DefaultRONIConfig(), pool, newUnbound, stats.NewRNG(22))
	if err != nil {
		t.Fatal(err)
	}
	for i := range bound.trials {
		if bound.trials[i].bound == nil || plain.trials[i].bound != nil {
			t.Fatalf("trial %d: bound=%v plain=%v, want only the first bound", i, bound.trials[i].bound != nil, plain.trials[i].bound != nil)
		}
		if a, b := bound.trials[i], plain.trials[i]; a.baseHamHam != b.baseHamHam || a.baseCorrect != b.baseCorrect {
			t.Fatalf("trial %d baselines differ: %d/%d vs %d/%d", i, a.baseHamHam, a.baseCorrect, b.baseHamHam, b.baseCorrect)
		}
	}

	var queries []*mail.Message
	var labels []bool
	for i := 0; i < 15; i++ {
		queries = append(queries, g.SpamMessage(r), g.HamMessage(r))
		labels = append(labels, true, false)
	}
	queries = append(queries, NewDictionaryAttack(lexicon.Optimal(g.Universe())).BuildAttack(r))
	labels = append(labels, true)
	focused, err := NewFocusedAttack(g.HamMessage(r), 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		queries = append(queries, focused.BuildAttack(r))
		labels = append(labels, true)
	}
	queries = append(queries, pool.Examples[0].Msg) // already in some trial's sets
	labels = append(labels, pool.Examples[0].Spam)

	tok := tokenize.Default()
	for i, q := range queries {
		ts := tok.Stream(q)
		want := plain.MeasureImpactStream(q, ts, labels[i])
		if got := bound.MeasureImpactStream(q, ts, labels[i]); got != want {
			t.Fatalf("query %d: bound impact %+v, learn-unlearn impact %+v", i, got, want)
		}
		if got := bound.MeasureImpact(q, labels[i]); got != want {
			t.Fatalf("query %d: MeasureImpact %+v, learn-unlearn impact %+v", i, got, want)
		}
	}
}

// TestRONIProbeAllocFree: with the query already tokenized, a probe
// allocates nothing — in particular it interns none of a novel query's
// tokens into the trial filters, which a long-running admitter would
// otherwise accumulate probe after probe.
func TestRONIProbeAllocFree(t *testing.T) {
	g := testGenerator(t)
	r := stats.NewRNG(23)
	d, err := NewRONI(DefaultRONIConfig(), g.Corpus(r, 200, 200), sbayes.DefaultOptions(), nil, r)
	if err != nil {
		t.Fatal(err)
	}
	tok := tokenize.Default()
	var streams []*tokenize.TokenStream
	for i := 0; i < 8; i++ {
		streams = append(streams, tok.Stream(g.SpamMessage(r)), tok.Stream(g.HamMessage(r)))
	}
	d.MeasureImpactStream(nil, streams[0], true) // warm the scratch maps
	i := 0
	if avg := testing.AllocsPerRun(50, func() {
		d.MeasureImpactStream(nil, streams[i%len(streams)], i%2 == 0)
		i++
	}); avg != 0 {
		t.Fatalf("a probe allocates %.1f times, want 0", avg)
	}
}
