package engine

// Snapshot-swap suite: the Engine must keep scoring at full speed
// while a retrain builds a replacement, and no verdict may ever be
// computed against a half-trained filter. The retrains publish
// through Guarded.RetrainIncremental (the engine's only retrain path),
// here over an admitter that accepts everything. Run under -race (make
// race).

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mail"
	"repro/internal/tokenize"
)

// countingClassifier exposes exactly how many examples it has been
// trained on: Score returns float64(trained). A fully built
// replacement therefore scores len(train); any other non-initial
// value observed by a scorer is a half-trained filter leaking through
// the snapshot boundary. It counts LearnTokenStream only: the engine
// trains the streams it vetted, so its message learners panic.
type countingClassifier struct {
	stubRest
	trained int
}

func (c *countingClassifier) Tokenizer() *tokenize.Tokenizer { return stubTok }
func (c *countingClassifier) LearnTokenStream(ts *tokenize.TokenStream, isSpam bool, weight int) {
	c.trained += weight
}
func (c *countingClassifier) UnlearnTokenStream(ts *tokenize.TokenStream, isSpam bool, weight int) error {
	if c.trained < weight {
		return errors.New("counting: underflow")
	}
	c.trained -= weight
	return nil
}
func (c *countingClassifier) ScoreTokenStream(*tokenize.TokenStream) float64 {
	return float64(c.trained)
}
func (c *countingClassifier) ClassifyTokenStream(*tokenize.TokenStream) (Label, float64) {
	return Unsure, float64(c.trained)
}
func (c *countingClassifier) Learn(*mail.Message, bool) { panic("counting: Learn") }
func (c *countingClassifier) LearnWeighted(*mail.Message, bool, int) {
	panic("counting: LearnWeighted")
}
func (c *countingClassifier) Unlearn(*mail.Message, bool) error { panic("counting: Unlearn") }
func (c *countingClassifier) Score(m *mail.Message) float64     { return float64(c.trained) }
func (c *countingClassifier) Classify(m *mail.Message) (Label, float64) {
	return Unsure, float64(c.trained)
}
func (c *countingClassifier) Counts() (int, int) { return c.trained, 0 }
func (c *countingClassifier) CloneClassifier() Classifier {
	return &countingClassifier{trained: c.trained}
}

// acceptAll admits every candidate, so a guard's retrains train
// exactly what they are given.
type acceptAll struct{}

func (acceptAll) Name() string { return "accept-all" }
func (acceptAll) Admit(context.Context, *mail.Message, *tokenize.TokenStream, bool) AdmitDecision {
	return AdmitDecision{Verdict: AdmitAccept}
}

// guard wraps e with the accept-everything policy.
func guard(e *Engine) *Guarded { return NewGuarded(e, acceptAll{}, GuardedConfig{}) }

// served returns a one-shard engine's serving classifier.
func served(e *Engine) Classifier {
	clf, _ := e.Snapshot()
	return clf
}

// trainCorpus builds an n-example corpus of dummy messages.
func trainCorpus(n int) *corpus.Corpus {
	c := &corpus.Corpus{}
	for i := 0; i < n; i++ {
		c.Add(&mail.Message{Body: "x"}, i%2 == 0)
	}
	return c
}

func TestRetrainPublishesNewGeneration(t *testing.T) {
	e := New(&countingClassifier{}, Config{Workers: 2})
	if g := e.Generation(); g != 1 {
		t.Fatalf("initial generation %d, want 1", g)
	}
	gen, err := guard(e).RetrainIncremental(context.Background(), trainCorpus(10))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("retrained generation %d, want 2", gen)
	}
	clf, g := e.Snapshot()
	if g != gen {
		t.Fatalf("Snapshot generation %d != RetrainIncremental result %d", g, gen)
	}
	if got := clf.Score(&mail.Message{Body: "x"}); got != 10 {
		t.Fatalf("retrained snapshot scores %v, want 10 (fully trained)", got)
	}
	s := e.Stats()
	if s.Generation != 2 || s.Retrains != 1 {
		t.Fatalf("stats generation/retrains = %d/%d, want 2/1", s.Generation, s.Retrains)
	}
}

func TestRetrainCancelledKeepsServingSnapshot(t *testing.T) {
	e := New(&countingClassifier{trained: 7}, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gen, err := guard(e).RetrainIncremental(ctx, trainCorpus(10))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if gen != 1 || e.Generation() != 1 {
		t.Fatalf("cancelled retrain moved the generation to %d", e.Generation())
	}
	if got := served(e).Score(&mail.Message{Body: "x"}); got != 7 {
		t.Fatalf("serving snapshot changed: score %v, want 7", got)
	}
}

func TestRetrainIncrementalClonesServingSnapshot(t *testing.T) {
	base := &countingClassifier{trained: 5}
	e := New(base, Config{})
	gen, err := guard(e).RetrainIncremental(context.Background(), trainCorpus(3))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("generation %d, want 2", gen)
	}
	if got := served(e).Score(&mail.Message{Body: "x"}); got != 8 {
		t.Fatalf("incremental snapshot scores %v, want 8 (5 cloned + 3 delta)", got)
	}
	// The previous snapshot was cloned, not mutated.
	if base.trained != 5 {
		t.Fatalf("incremental retraining mutated the old snapshot (trained = %d)", base.trained)
	}
}

func TestSwapPublishesExternalClassifier(t *testing.T) {
	e := New(&countingClassifier{}, Config{})
	next := &countingClassifier{trained: 42}
	if gen := e.Swap(next); gen != 2 {
		t.Fatalf("generation %d, want 2", gen)
	}
	if served(e) != Classifier(next) {
		t.Fatal("Swap did not install the external classifier")
	}
}

func TestEngineClassifySingle(t *testing.T) {
	e := New(&stubClassifier{}, Config{Name: "single"})
	res := e.Classify(scoreMsg(0.99))
	if res.Label != Spam || res.Score != 0.99 {
		t.Fatalf("Classify = %+v, want spam/0.99", res)
	}
	s := e.Stats()
	if s.Classified != 1 || s.ByLabel[Spam] != 1 {
		t.Fatalf("stats after single classify: %+v", s)
	}
}

// TestServeWhileRetrainNoTornReads hammers ClassifyBatch and Classify
// concurrently with two guarded RetrainIncremental loops. Every score
// must be 0 (the initial empty snapshot) or a multiple of trainN (a
// fully trained replacement); any other value means a verdict was
// computed against a half-trained filter. The -race run additionally
// proves the swap itself is free of data races.
func TestServeWhileRetrainNoTornReads(t *testing.T) {
	const trainN = 400
	train := trainCorpus(trainN)
	e := New(&countingClassifier{}, Config{Workers: 4})
	g := guard(e)
	msgs := make([]*mail.Message, 64)
	for i := range msgs {
		msgs[i] = &mail.Message{Body: "probe"}
	}

	ctx, stop := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	// Two retrainers publish concurrently with scoring. Every delta is
	// the whole corpus, so legal scores stay multiples of trainN.
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if _, err := g.RetrainIncremental(context.Background(), train); err != nil {
					t.Errorf("RetrainIncremental: %v", err)
					return
				}
			}
		}()
	}

	legal := func(score float64) bool {
		n := int(score)
		return float64(n) == score && n%trainN == 0 && n >= 0
	}
	for round := 0; round < 50; round++ {
		out, _, err := e.ScoreBatch(context.Background(), msgs)
		if err != nil {
			t.Fatal(err)
		}
		first := out[0]
		for i, score := range out {
			if !legal(score) {
				t.Fatalf("round %d: score %v from a half-trained filter", round, score)
			}
			if score != first {
				t.Fatalf("round %d: batch mixed generations (out[0]=%v, out[%d]=%v)", round, first, i, score)
			}
		}
		if res := e.Classify(msgs[0]); !legal(res.Score) {
			t.Fatalf("round %d: single verdict %v from a half-trained filter", round, res.Score)
		}
	}
	stop()
	wg.Wait()
	if s := e.Stats(); s.Retrains == 0 {
		t.Fatal("no retrain published during the hammering")
	}
}
