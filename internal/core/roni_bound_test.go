package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/lexicon"
	"repro/internal/mail"
	"repro/internal/stats"
	"repro/internal/tokenize"
)

// reference binds validation sets the direct way, as the reference a
// backend's own binder must match: learn the query's stream, classify
// every bound stream, unlearn it.
type reference struct{ engine.Classifier }

func (r reference) BindValidation(streams []*tokenize.TokenStream) engine.ValidationSet {
	return referenceSet{r.Classifier, streams}
}

type referenceSet struct {
	clf     engine.Classifier
	streams []*tokenize.TokenStream
}

func (s referenceSet) ClassifyWith(q *tokenize.TokenStream, qSpam bool, out []engine.Label) {
	if q != nil {
		s.clf.LearnTokenStream(q, qSpam, 1)
	}
	for i, ts := range s.streams {
		out[i], _ = s.clf.ClassifyTokenStream(ts)
	}
	if q != nil {
		if err := s.clf.UnlearnTokenStream(q, qSpam, 1); err != nil {
			// Unlearning what was just learned cannot underflow.
			panic(err)
		}
	}
}

// forEachBackend runs fn once per registered backend.
func forEachBackend(t *testing.T, fn func(t *testing.T, b engine.Backend)) {
	for _, name := range engine.Backends() {
		b, err := engine.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) { fn(t, b) })
	}
}

// novelMessage is a message of n words no pool message contains, the
// query shape that would grow a trial filter's symbol table if a probe
// interned what it measures.
func novelMessage(tag string, n int) *mail.Message {
	words := make([]string, n)
	for i := range words {
		words[i] = fmt.Sprintf("novel%s%03d", tag, i)
	}
	return &mail.Message{Body: strings.Join(words, " ")}
}

// TestRONIBoundMatchesLearnUnlearn proves each backend's bound probe
// measures exactly what learn-and-unlearn measures: two evaluators
// sampled identically from one pool, one over the backend's binder and
// one over the reference, report identical baselines and identical
// impacts for organic mail of both labels, dictionary and focused
// attack mail, pool members, novel words and an empty message.
func TestRONIBoundMatchesLearnUnlearn(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b engine.Backend) {
		g := testGenerator(t)
		r := stats.NewRNG(21)
		pool := g.Corpus(r, 200, 200)
		bound, err := NewRONIBackend(DefaultRONIConfig(), pool, b.New, stats.NewRNG(22))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewRONIBackend(DefaultRONIConfig(), pool, func() engine.Classifier { return reference{b.New()} }, stats.NewRNG(22))
		if err != nil {
			t.Fatal(err)
		}
		for i := range bound.trials {
			if a, b := bound.trials[i], ref.trials[i]; a.baseHamHam != b.baseHamHam || a.baseCorrect != b.baseCorrect {
				t.Fatalf("trial %d baselines differ: %d/%d vs %d/%d", i, a.baseHamHam, a.baseCorrect, b.baseHamHam, b.baseCorrect)
			}
		}

		var queries []*mail.Message
		var labels []bool
		add := func(m *mail.Message, spam bool) {
			queries = append(queries, m)
			labels = append(labels, spam)
		}
		for i := 0; i < 15; i++ {
			add(g.SpamMessage(r), true)
			add(g.HamMessage(r), false)
		}
		dict := NewDictionaryAttack(lexicon.Optimal(g.Universe())).BuildAttack(r)
		add(dict, true)
		add(dict, false)
		focused, err := NewFocusedAttack(g.HamMessage(r), 0.5, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			add(focused.BuildAttack(r), true)
		}
		for _, i := range []int{0, 1, 250, 399} { // in some trials' sets
			add(pool.Examples[i].Msg, pool.Examples[i].Spam)
			add(pool.Examples[i].Msg, !pool.Examples[i].Spam)
		}
		add(novelMessage("q", 50), true)
		add(novelMessage("q", 50), false)
		add(&mail.Message{}, true)
		add(&mail.Message{}, false)

		tok := b.New().Tokenizer()
		for i, q := range queries {
			ts := tok.Stream(q)
			want := ref.MeasureImpactStream(q, ts, labels[i])
			if got := bound.MeasureImpactStream(q, ts, labels[i]); got != want {
				t.Fatalf("query %d: bound impact %+v, learn-unlearn impact %+v", i, got, want)
			}
			if got := bound.MeasureImpact(q, labels[i]); got != want {
				t.Fatalf("query %d: MeasureImpact %+v, learn-unlearn impact %+v", i, got, want)
			}
		}
	})
}

// TestRONIProbeAllocFree: with the query already tokenized, a probe
// allocates nothing on any backend — in particular it interns none of
// a novel query's tokens into the trial filters, which a long-running
// admitter would otherwise accumulate probe after probe.
func TestRONIProbeAllocFree(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b engine.Backend) {
		g := testGenerator(t)
		r := stats.NewRNG(23)
		d, err := NewRONIBackend(DefaultRONIConfig(), g.Corpus(r, 200, 200), b.New, r)
		if err != nil {
			t.Fatal(err)
		}
		tok := b.New().Tokenizer()
		var streams []*tokenize.TokenStream
		for i := 0; i < 8; i++ {
			streams = append(streams, tok.Stream(g.SpamMessage(r)), tok.Stream(g.HamMessage(r)),
				tok.Stream(novelMessage(fmt.Sprint(i), 50)))
		}
		d.MeasureImpactStream(nil, streams[0], true) // warm the scratch maps
		i := 0
		if avg := testing.AllocsPerRun(60, func() {
			d.MeasureImpactStream(nil, streams[i%len(streams)], i%2 == 0)
			i++
		}); avg != 0 {
			t.Fatalf("a probe allocates %.1f times, want 0", avg)
		}
	})
}
