// Package eval provides the measurement layer of the experiment
// harness: three-way confusion matrices over the backend-generic
// verdicts, once-tokenized corpora, classifier training helpers,
// serial and parallel corpus evaluation, and a small deterministic
// parallel-for used to run cross-validation folds concurrently.
// Everything is written against engine.Classifier, so the same
// harness measures any registered backend.
//
// The paper's §2.3 observation drives the metric design: because of
// the unsure verdict, plain false positive/negative rates are not
// enough — ham-as-unsure is "nearly as bad for the user as false
// positives", so every table tracks ham-as-spam and
// ham-as-(spam∪unsure) separately (Figure 1's dashed and solid
// lines).
package eval

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/sbayes"
	"repro/internal/tokenize"
)

// Confusion counts verdicts by true class.
type Confusion struct {
	HamAsHam     int
	HamAsUnsure  int
	HamAsSpam    int
	SpamAsHam    int
	SpamAsUnsure int
	SpamAsSpam   int
}

// Observe tallies one classification. A label outside the defined
// three is clamped to Unsure — matching the engine's own counter
// clamping — rather than silently counted as spam, so a buggy backend
// cannot inflate the spam columns.
func (c *Confusion) Observe(actualSpam bool, predicted engine.Label) {
	if actualSpam {
		switch predicted {
		case engine.Ham:
			c.SpamAsHam++
		case engine.Spam:
			c.SpamAsSpam++
		default:
			c.SpamAsUnsure++
		}
	} else {
		switch predicted {
		case engine.Ham:
			c.HamAsHam++
		case engine.Spam:
			c.HamAsSpam++
		default:
			c.HamAsUnsure++
		}
	}
}

// Add accumulates another confusion matrix into c.
func (c *Confusion) Add(o Confusion) {
	c.HamAsHam += o.HamAsHam
	c.HamAsUnsure += o.HamAsUnsure
	c.HamAsSpam += o.HamAsSpam
	c.SpamAsHam += o.SpamAsHam
	c.SpamAsUnsure += o.SpamAsUnsure
	c.SpamAsSpam += o.SpamAsSpam
}

// NumHam returns the number of true-ham observations.
func (c Confusion) NumHam() int { return c.HamAsHam + c.HamAsUnsure + c.HamAsSpam }

// NumSpam returns the number of true-spam observations.
func (c Confusion) NumSpam() int { return c.SpamAsHam + c.SpamAsUnsure + c.SpamAsSpam }

// rate guards division by zero.
func rate(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// HamAsSpamRate is the fraction of ham classified spam (Figure 1's
// dashed lines).
func (c Confusion) HamAsSpamRate() float64 { return rate(c.HamAsSpam, c.NumHam()) }

// HamAsUnsureRate is the fraction of ham classified unsure.
func (c Confusion) HamAsUnsureRate() float64 { return rate(c.HamAsUnsure, c.NumHam()) }

// HamMisclassifiedRate is the fraction of ham classified spam or
// unsure (Figure 1's solid lines).
func (c Confusion) HamMisclassifiedRate() float64 {
	return rate(c.HamAsSpam+c.HamAsUnsure, c.NumHam())
}

// SpamAsHamRate is the fraction of spam classified ham.
func (c Confusion) SpamAsHamRate() float64 { return rate(c.SpamAsHam, c.NumSpam()) }

// SpamAsUnsureRate is the fraction of spam classified unsure.
func (c Confusion) SpamAsUnsureRate() float64 { return rate(c.SpamAsUnsure, c.NumSpam()) }

// SpamMisclassifiedRate is the fraction of spam classified ham or
// unsure.
func (c Confusion) SpamMisclassifiedRate() float64 {
	return rate(c.SpamAsHam+c.SpamAsUnsure, c.NumSpam())
}

// Accuracy is the fraction of messages given their true label.
func (c Confusion) Accuracy() float64 {
	return rate(c.HamAsHam+c.SpamAsSpam, c.NumHam()+c.NumSpam())
}

// String renders the matrix compactly.
func (c Confusion) String() string {
	return fmt.Sprintf("ham(h/u/s)=%d/%d/%d spam(h/u/s)=%d/%d/%d",
		c.HamAsHam, c.HamAsUnsure, c.HamAsSpam,
		c.SpamAsHam, c.SpamAsUnsure, c.SpamAsSpam)
}

// LabeledStream is a once-tokenized labeled message.
type LabeledStream struct {
	Stream *tokenize.TokenStream
	Spam   bool
}

// StreamSet is a once-tokenized corpus; classification sweeps re-score
// the same test messages many times, so tokenizing once matters.
type StreamSet []LabeledStream

// StreamCorpus tokenizes every message of c exactly once with tok
// (nil selects the default tokenizer) into a StreamSet.
func StreamCorpus(c *corpus.Corpus, tok *tokenize.Tokenizer) StreamSet {
	if tok == nil {
		tok = tokenize.Default()
	}
	out := make(StreamSet, 0, c.Len())
	for _, e := range c.Examples {
		out = append(out, LabeledStream{Stream: tok.Stream(e.Msg), Spam: e.Spam})
	}
	return out
}

// EvaluateStreamSet scores a once-tokenized corpus.
func EvaluateStreamSet(c engine.StreamClassifier, ss StreamSet) Confusion {
	var conf Confusion
	for _, ex := range ss {
		label, _ := c.ClassifyTokenStream(ex.Stream)
		conf.Observe(ex.Spam, label)
	}
	return conf
}

// EvaluateStreamSetBatch is EvaluateStreamSet sharded across up to
// workers goroutines (GOMAXPROCS when workers <= 0). The classifier
// must tolerate concurrent ClassifyTokenStream calls; TokenStreams are
// immutable, so sharing them across shards is free.
func EvaluateStreamSetBatch(c engine.StreamClassifier, ss StreamSet, workers int) Confusion {
	confs := shardedConfusions(len(ss), &workers)
	Parallel(workers, workers, func(w int) {
		for i := w; i < len(ss); i += workers {
			label, _ := c.ClassifyTokenStream(ss[i].Stream)
			confs[w].Observe(ss[i].Spam, label)
		}
	})
	return sumConfusions(confs)
}

// Evaluate scores a corpus under any classifier.
func Evaluate(c engine.Classifier, test *corpus.Corpus) Confusion {
	var conf Confusion
	for _, e := range test.Examples {
		label, _ := c.Classify(e.Msg)
		conf.Observe(e.Spam, label)
	}
	return conf
}

// EvaluateBatch is Evaluate sharded across up to workers goroutines
// (GOMAXPROCS when workers <= 0). The classifier must tolerate
// concurrent Classify calls — every backend does, as long as nothing
// trains it mid-batch.
func EvaluateBatch(c engine.Classifier, test *corpus.Corpus, workers int) Confusion {
	confs := shardedConfusions(test.Len(), &workers)
	Parallel(workers, workers, func(w int) {
		for i := w; i < len(test.Examples); i += workers {
			e := test.Examples[i]
			label, _ := c.Classify(e.Msg)
			confs[w].Observe(e.Spam, label)
		}
	})
	return sumConfusions(confs)
}

// shardedConfusions clamps workers to [1, n] (defaulting to
// GOMAXPROCS) and allocates one accumulator per shard.
func shardedConfusions(n int, workers *int) []Confusion {
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	if *workers > n {
		*workers = n
	}
	if *workers < 1 {
		*workers = 1
	}
	return make([]Confusion, *workers)
}

func sumConfusions(confs []Confusion) Confusion {
	var total Confusion
	for _, c := range confs {
		total.Add(c)
	}
	return total
}

// Train trains any classifier on a corpus in corpus order.
func Train(c engine.Classifier, train *corpus.Corpus) {
	for _, e := range train.Examples {
		c.Learn(e.Msg, e.Spam)
	}
}

// TrainBackend constructs a fresh classifier from a backend factory
// and trains it on a corpus.
func TrainBackend(newClassifier engine.Factory, train *corpus.Corpus) engine.Classifier {
	c := newClassifier()
	Train(c, train)
	return c
}

// TrainFilter trains a fresh SpamBayes filter on a corpus. It remains
// the concrete-typed helper for code that needs sbayes-only surface
// (Clone, Explain); backend-generic code uses Train.
func TrainFilter(train *corpus.Corpus, opts sbayes.Options, tok *tokenize.Tokenizer) *sbayes.Filter {
	f := sbayes.New(opts, tok)
	Train(f, train)
	return f
}

// Parallel runs fn(0..n-1) on up to workers goroutines (n if workers
// <= 0) and waits for completion. Each index is processed exactly
// once; fn must be safe to run concurrently for distinct indices.
// Results are deterministic as long as fn(i) writes only to
// index-i-owned state. Scheduling is engine.ParallelFor's
// atomic-cursor handout — one shared implementation instead of a
// per-index channel send, whose context switch per item dominates
// small per-item work.
func Parallel(n, workers int, fn func(i int)) {
	engine.ParallelFor(context.Background(), n, workers, fn)
}

// Table accumulates aligned rows for textual rendering: the one
// renderer behind every experiment and simulator report.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable starts a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends one row of cells.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// AddRowf appends one row formatted from format, its cells separated
// by tabs.
func (t *Table) AddRowf(format string, args ...any) {
	t.AddRow(strings.Split(fmt.Sprintf(format, args...), "\t")...)
}

// String renders with column alignment and a separator line.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
