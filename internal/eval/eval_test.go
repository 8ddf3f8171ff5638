package eval

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/corpus"
	"repro/internal/graham"
	"repro/internal/mail"
	"repro/internal/sbayes"
)

func TestConfusionObserve(t *testing.T) {
	var c Confusion
	c.Observe(false, sbayes.Ham)
	c.Observe(false, sbayes.Unsure)
	c.Observe(false, sbayes.Spam)
	c.Observe(true, sbayes.Ham)
	c.Observe(true, sbayes.Unsure)
	c.Observe(true, sbayes.Spam)
	c.Observe(true, sbayes.Spam)
	if c.HamAsHam != 1 || c.HamAsUnsure != 1 || c.HamAsSpam != 1 {
		t.Errorf("ham counts wrong: %+v", c)
	}
	if c.SpamAsHam != 1 || c.SpamAsUnsure != 1 || c.SpamAsSpam != 2 {
		t.Errorf("spam counts wrong: %+v", c)
	}
	if c.NumHam() != 3 || c.NumSpam() != 4 {
		t.Errorf("totals wrong: %d/%d", c.NumHam(), c.NumSpam())
	}
}

// TestConfusionObserveClampsUnknownLabels is the regression for the
// out-of-range-label bug: the old default: arms counted any label
// outside the defined three as spam, silently inflating the spam
// columns. Unknown labels must clamp to Unsure, matching the engine's
// own counter clamping.
func TestConfusionObserveClampsUnknownLabels(t *testing.T) {
	for _, label := range []sbayes.Label{-1, 3, 7, -128, 127} {
		var c Confusion
		c.Observe(false, label)
		c.Observe(true, label)
		if c.HamAsUnsure != 1 || c.SpamAsUnsure != 1 {
			t.Errorf("Observe(Label(%d)) counted as %+v, want unsure/unsure", label, c)
		}
		if c.HamAsSpam != 0 || c.SpamAsSpam != 0 {
			t.Errorf("Observe(Label(%d)) leaked into the spam columns: %+v", label, c)
		}
		if c.NumHam() != 1 || c.NumSpam() != 1 {
			t.Errorf("Observe(Label(%d)) lost observations: %+v", label, c)
		}
	}
}

func TestConfusionRates(t *testing.T) {
	c := Confusion{HamAsHam: 6, HamAsUnsure: 3, HamAsSpam: 1,
		SpamAsHam: 1, SpamAsUnsure: 1, SpamAsSpam: 8}
	if got := c.HamAsSpamRate(); got != 0.1 {
		t.Errorf("HamAsSpamRate = %v", got)
	}
	if got := c.HamAsUnsureRate(); got != 0.3 {
		t.Errorf("HamAsUnsureRate = %v", got)
	}
	if got := c.HamMisclassifiedRate(); got != 0.4 {
		t.Errorf("HamMisclassifiedRate = %v", got)
	}
	if got := c.SpamAsHamRate(); got != 0.1 {
		t.Errorf("SpamAsHamRate = %v", got)
	}
	if got := c.SpamAsUnsureRate(); got != 0.1 {
		t.Errorf("SpamAsUnsureRate = %v", got)
	}
	if got := c.SpamMisclassifiedRate(); got != 0.2 {
		t.Errorf("SpamMisclassifiedRate = %v", got)
	}
	if got := c.Accuracy(); got != 0.7 {
		t.Errorf("Accuracy = %v", got)
	}
}

func TestConfusionZeroSafe(t *testing.T) {
	var c Confusion
	for _, v := range []float64{
		c.HamAsSpamRate(), c.HamMisclassifiedRate(), c.SpamAsHamRate(),
		c.SpamMisclassifiedRate(), c.Accuracy(),
	} {
		if v != 0 {
			t.Errorf("empty confusion rate = %v", v)
		}
	}
}

func TestConfusionAdd(t *testing.T) {
	a := Confusion{HamAsHam: 1, SpamAsSpam: 2}
	b := Confusion{HamAsHam: 3, HamAsSpam: 1, SpamAsUnsure: 4}
	a.Add(b)
	if a.HamAsHam != 4 || a.HamAsSpam != 1 || a.SpamAsUnsure != 4 || a.SpamAsSpam != 2 {
		t.Errorf("Add = %+v", a)
	}
}

func TestConfusionString(t *testing.T) {
	c := Confusion{HamAsHam: 5}
	if !strings.Contains(c.String(), "5/0/0") {
		t.Errorf("String = %q", c.String())
	}
}

// buildTinyCorpus returns a trivially separable corpus.
func buildTinyCorpus(n int) *corpus.Corpus {
	c := &corpus.Corpus{}
	for i := 0; i < n; i++ {
		c.Add(&mail.Message{Body: "meeting budget forecast agenda\n"}, false)
		c.Add(&mail.Message{Body: "lottery winner pills casino\n"}, true)
	}
	return c
}

func TestTrainAndEvaluate(t *testing.T) {
	c := buildTinyCorpus(20)
	f := TrainFilter(c, sbayes.DefaultOptions(), nil)
	conf := Evaluate(f, c)
	if conf.NumHam() != 20 || conf.NumSpam() != 20 {
		t.Fatalf("totals = %d/%d", conf.NumHam(), conf.NumSpam())
	}
	if conf.HamAsHam != 20 || conf.SpamAsSpam != 20 {
		t.Errorf("separable corpus not perfectly classified: %+v", conf)
	}
}

func TestStreamCorpusAndEvaluateStreamSet(t *testing.T) {
	c := buildTinyCorpus(10)
	f := TrainFilter(c, sbayes.DefaultOptions(), nil)
	ss := StreamCorpus(c, nil)
	if len(ss) != c.Len() {
		t.Fatalf("stream set size %d", len(ss))
	}
	direct := Evaluate(f, c)
	viaStreams := EvaluateStreamSet(f, ss)
	if direct != viaStreams {
		t.Errorf("tokenized evaluation differs: %+v vs %+v", direct, viaStreams)
	}
}

func TestEvaluateBatchMatchesSerial(t *testing.T) {
	c := buildTinyCorpus(40)
	f := TrainFilter(c, sbayes.DefaultOptions(), nil)
	serial := Evaluate(f, c)
	for _, workers := range []int{0, 1, 2, 7, 1000} {
		if got := EvaluateBatch(f, c, workers); got != serial {
			t.Errorf("workers=%d: %+v != serial %+v", workers, got, serial)
		}
	}
	// Empty corpus is safe at any worker count.
	if got := EvaluateBatch(f, &corpus.Corpus{}, 4); got != (Confusion{}) {
		t.Errorf("empty corpus confusion %+v", got)
	}
}

func TestEvaluateStreamSetBatchMatchesSerial(t *testing.T) {
	c := buildTinyCorpus(30)
	f := TrainFilter(c, sbayes.DefaultOptions(), nil)
	ss := StreamCorpus(c, nil)
	serial := EvaluateStreamSet(f, ss)
	for _, workers := range []int{0, 1, 3, 64} {
		if got := EvaluateStreamSetBatch(f, ss, workers); got != serial {
			t.Errorf("workers=%d: %+v != serial %+v", workers, got, serial)
		}
	}
}

func TestTrainAndEvaluateGenericBackend(t *testing.T) {
	// The evaluation harness accepts any Classifier, not just the
	// SpamBayes filter; Graham's binary verdict lands only in the
	// Ham/Spam cells.
	c := buildTinyCorpus(20)
	g := graham.NewDefault()
	Train(g, c)
	conf := EvaluateBatch(g, c, 4)
	if conf.NumHam() != 20 || conf.NumSpam() != 20 {
		t.Fatalf("totals = %d/%d", conf.NumHam(), conf.NumSpam())
	}
	if conf.HamAsUnsure != 0 || conf.SpamAsUnsure != 0 {
		t.Errorf("graham produced unsure verdicts: %+v", conf)
	}
	if conf.HamAsHam != 20 || conf.SpamAsSpam != 20 {
		t.Errorf("separable corpus not perfectly classified: %+v", conf)
	}
}

func TestParallelCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		var hits [100]int32
		Parallel(len(hits), workers, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
	// n=0 must not hang or call fn.
	Parallel(0, 4, func(i int) { t.Fatal("fn called for n=0") })
}

func TestParallelDeterministicAggregation(t *testing.T) {
	out := make([]int, 50)
	Parallel(len(out), 8, func(i int) { out[i] = i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}
