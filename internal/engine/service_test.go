package engine

import (
	"context"
	"errors"
	"io"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mail"
	"repro/internal/tokenize"
)

// stubClassifier is a deterministic in-memory Classifier for service
// tests: the score is parsed from the message body, which stubTok
// keeps whole as the stream's first token.
type stubClassifier struct {
	stubRest
	nspam, nham int
	slow        time.Duration
	calls       atomic.Int64
}

// stubTok keeps every whitespace-separated body word verbatim.
var stubTok = tokenize.New(tokenize.Options{MinWordLen: 1, MaxWordLen: 64})

// stubRest completes the Classifier contract for the engine's fakes
// with the parts a test does not serve: persistence, cloning,
// validation binding, thresholds and the vocabulary size. Each panics
// if reached; a fake that needs one defines it.
type stubRest struct{}

func (stubRest) Save(io.Writer) error                                 { panic("stub: Save") }
func (stubRest) Load(io.Reader) error                                 { panic("stub: Load") }
func (stubRest) CloneClassifier() Classifier                          { panic("stub: CloneClassifier") }
func (stubRest) BindValidation([]*tokenize.TokenStream) ValidationSet { panic("stub: BindValidation") }
func (stubRest) SetThresholds(float64, float64) error                 { panic("stub: SetThresholds") }
func (stubRest) VocabSize() int                                       { panic("stub: VocabSize") }
func (stubRest) BackendName() string                                  { panic("stub: BackendName") }

func (s *stubClassifier) Tokenizer() *tokenize.Tokenizer { return stubTok }

func (s *stubClassifier) LearnTokenStream(ts *tokenize.TokenStream, isSpam bool, weight int) {
	if isSpam {
		s.nspam += weight
	} else {
		s.nham += weight
	}
}

func (s *stubClassifier) UnlearnTokenStream(ts *tokenize.TokenStream, isSpam bool, weight int) error {
	if isSpam && s.nspam < weight || !isSpam && s.nham < weight {
		return errors.New("stub: underflow")
	}
	if isSpam {
		s.nspam -= weight
	} else {
		s.nham -= weight
	}
	return nil
}

func (s *stubClassifier) ScoreTokenStream(ts *tokenize.TokenStream) float64 {
	s.calls.Add(1)
	if s.slow > 0 {
		time.Sleep(s.slow)
	}
	if ts.Len() == 0 {
		return 0.5
	}
	v, err := strconv.ParseFloat(string(ts.At(0)), 64)
	if err != nil {
		return 0.5
	}
	return v
}

func (s *stubClassifier) ClassifyTokenStream(ts *tokenize.TokenStream) (Label, float64) {
	v := s.ScoreTokenStream(ts)
	switch {
	case v <= 0.15:
		return Ham, v
	case v <= 0.9:
		return Unsure, v
	default:
		return Spam, v
	}
}

func (s *stubClassifier) Learn(m *mail.Message, isSpam bool) {
	s.LearnTokenStream(stubTok.Stream(m), isSpam, 1)
}

func (s *stubClassifier) LearnWeighted(m *mail.Message, isSpam bool, weight int) {
	s.LearnTokenStream(stubTok.Stream(m), isSpam, weight)
}

func (s *stubClassifier) Unlearn(m *mail.Message, isSpam bool) error {
	return s.UnlearnTokenStream(stubTok.Stream(m), isSpam, 1)
}

func (s *stubClassifier) Score(m *mail.Message) float64 {
	return s.ScoreTokenStream(stubTok.Stream(m))
}

func (s *stubClassifier) Classify(m *mail.Message) (Label, float64) {
	return s.ClassifyTokenStream(stubTok.Stream(m))
}

func (s *stubClassifier) Counts() (int, int) { return s.nspam, s.nham }

func scoreMsg(v float64) *mail.Message {
	return &mail.Message{Body: strconv.FormatFloat(v, 'g', -1, 64)}
}

func TestClassifyBatchOrderPreserved(t *testing.T) {
	e := New(&stubClassifier{}, Config{Workers: 7})
	msgs := make([]*mail.Message, 100)
	for i := range msgs {
		msgs[i] = scoreMsg(float64(i) / 100)
	}
	out, err := e.ClassifyBatch(context.Background(), msgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out {
		if want := float64(i) / 100; res.Score != want {
			t.Fatalf("out[%d].Score = %v, want %v (order broken)", i, res.Score, want)
		}
	}
}

func TestScoreBatch(t *testing.T) {
	e := New(&stubClassifier{}, Config{Workers: 3})
	msgs := []*mail.Message{scoreMsg(0.1), scoreMsg(0.5), scoreMsg(0.95)}
	out, _, err := e.ScoreBatch(context.Background(), msgs)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.1, 0.5, 0.95}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestClassifyBatchEmpty(t *testing.T) {
	e := New(&stubClassifier{}, Config{})
	out, err := e.ClassifyBatch(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("%d results for empty batch", len(out))
	}
}

func TestClassifyBatchCancellation(t *testing.T) {
	clf := &stubClassifier{slow: time.Millisecond}
	e := New(clf, Config{Workers: 2})
	msgs := make([]*mail.Message, 10000)
	for i := range msgs {
		msgs[i] = scoreMsg(0.5)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if _, err := e.ClassifyBatch(ctx, msgs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation stopped the sweep well short of the full batch.
	if n := clf.calls.Load(); n >= int64(len(msgs)) {
		t.Errorf("classified all %d messages despite cancellation", n)
	}
	// A cancelled batch publishes no counters.
	if s := e.Stats(); s.Classified != 0 || s.Batches != 0 {
		t.Errorf("cancelled batch published stats %+v", s)
	}
}

func TestEngineStats(t *testing.T) {
	e := New(&stubClassifier{}, Config{Name: "stub", Workers: 4})
	msgs := []*mail.Message{scoreMsg(0.05), scoreMsg(0.5), scoreMsg(0.95), scoreMsg(0.99)}
	if _, err := e.ClassifyBatch(context.Background(), msgs); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Name != "stub" {
		t.Errorf("name %q", s.Name)
	}
	if s.Classified != 4 || s.Batches != 1 {
		t.Errorf("classified %d in %d batches, want 4 in 1", s.Classified, s.Batches)
	}
	if s.ByLabel[Ham] != 1 || s.ByLabel[Unsure] != 1 || s.ByLabel[Spam] != 2 {
		t.Errorf("label counts %v, want [1 1 2]", s.ByLabel)
	}
}

// TestStatsInvariantMixedLoad is the regression for the ScoreBatch
// accounting bug: score-only traffic used to inflate Classified with
// no ByLabel entries, breaking sum(ByLabel) == Classified. Under any
// mix of Classify, ClassifyBatch, and ScoreBatch the invariant must
// hold, with score-only traffic in its own Scored counter.
func TestStatsInvariantMixedLoad(t *testing.T) {
	e := New(&stubClassifier{}, Config{Workers: 3})
	ctx := context.Background()
	batch := []*mail.Message{scoreMsg(0.05), scoreMsg(0.5), scoreMsg(0.95)}

	e.Classify(scoreMsg(0.99))
	if _, err := e.ClassifyBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.ScoreBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	e.Classify(scoreMsg(0.01))
	if _, _, err := e.ScoreBatch(ctx, batch[:2]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ClassifyBatch(ctx, batch[:1]); err != nil {
		t.Fatal(err)
	}

	s := e.Stats()
	var byLabel uint64
	for _, n := range s.ByLabel {
		byLabel += n
	}
	if byLabel != s.Classified {
		t.Errorf("sum(ByLabel) = %d != Classified = %d", byLabel, s.Classified)
	}
	if s.Classified != 6 {
		t.Errorf("Classified = %d, want 6 (2 singles + 3 + 1 batched)", s.Classified)
	}
	if s.Scored != 5 {
		t.Errorf("Scored = %d, want 5 (3 + 2 score-only)", s.Scored)
	}
	if s.Batches != 4 {
		t.Errorf("Batches = %d, want 4", s.Batches)
	}
}

// TestClassifyLatencyRecorded is the regression for the invisible
// online hot path: single-message Classify used to record no latency
// at all, so an at-delivery deployment's scoring cost never surfaced
// in Stats.
func TestClassifyLatencyRecorded(t *testing.T) {
	e := New(&stubClassifier{slow: time.Millisecond}, Config{})
	for i := 0; i < 3; i++ {
		e.Classify(scoreMsg(0.5))
	}
	s := e.Stats()
	if s.ClassifyLatency < 3*time.Millisecond {
		t.Errorf("ClassifyLatency = %v, want >= 3ms of stub work", s.ClassifyLatency)
	}
	if s.BatchLatency != 0 {
		t.Errorf("single-message classifies leaked into BatchLatency (%v)", s.BatchLatency)
	}
	if _, err := e.ClassifyBatch(context.Background(), []*mail.Message{scoreMsg(0.5)}); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats(); got.BatchLatency == 0 {
		t.Error("batch call recorded no BatchLatency")
	}
}

func TestRegisterValidation(t *testing.T) {
	for _, b := range []Backend{
		{Name: "", New: func() Classifier { return &stubClassifier{} }},
		{Name: "stub-no-factory"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%+v) did not panic", b)
				}
			}()
			Register(b)
		}()
	}
	// Duplicate registration panics too.
	Register(Backend{Name: "stub-dup-test", New: func() Classifier { return &stubClassifier{} }})
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(Backend{Name: "stub-dup-test", New: func() Classifier { return &stubClassifier{} }})
}
