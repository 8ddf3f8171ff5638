// Package corpus manages labeled email collections: stratified
// sampling of training inboxes with a chosen spam prevalence, K-fold
// cross-validation splits, and mbox-pair persistence. It mirrors the
// experimental methodology of the paper's §4.1: the TREC-style source
// corpus is sampled into inboxes, which are split into train/test
// folds; attacks inject messages into the training side only.
package corpus

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/mail"
	"repro/internal/stats"
)

// Example is one labeled message.
type Example struct {
	Msg  *mail.Message
	Spam bool
}

// Corpus is an ordered collection of labeled messages. Order matters:
// every downstream split and sample is deterministic given the corpus
// order and an RNG.
type Corpus struct {
	Examples []Example
}

// New returns a corpus over the given examples (the slice is adopted,
// not copied).
func New(examples []Example) *Corpus { return &Corpus{Examples: examples} }

// FromMessages builds a corpus from separate ham and spam message
// slices, ham first.
func FromMessages(ham, spam []*mail.Message) *Corpus {
	ex := make([]Example, 0, len(ham)+len(spam))
	for _, m := range ham {
		ex = append(ex, Example{Msg: m, Spam: false})
	}
	for _, m := range spam {
		ex = append(ex, Example{Msg: m, Spam: true})
	}
	return New(ex)
}

// Len returns the number of messages.
func (c *Corpus) Len() int { return len(c.Examples) }

// NumSpam returns the number of spam messages.
func (c *Corpus) NumSpam() int {
	n := 0
	for _, e := range c.Examples {
		if e.Spam {
			n++
		}
	}
	return n
}

// NumHam returns the number of ham messages.
func (c *Corpus) NumHam() int { return c.Len() - c.NumSpam() }

// Ham returns the ham messages in corpus order.
func (c *Corpus) Ham() []*mail.Message { return c.byLabel(false) }

// Spam returns the spam messages in corpus order.
func (c *Corpus) Spam() []*mail.Message { return c.byLabel(true) }

func (c *Corpus) byLabel(spam bool) []*mail.Message {
	var out []*mail.Message
	for _, e := range c.Examples {
		if e.Spam == spam {
			out = append(out, e.Msg)
		}
	}
	return out
}

// Add appends one labeled message.
func (c *Corpus) Add(m *mail.Message, spam bool) {
	c.Examples = append(c.Examples, Example{Msg: m, Spam: spam})
}

// Append appends every example of other.
func (c *Corpus) Append(other *Corpus) {
	c.Examples = append(c.Examples, other.Examples...)
}

// Clone returns a shallow copy (examples share messages, which are
// treated as immutable throughout the repository).
func (c *Corpus) Clone() *Corpus {
	ex := make([]Example, len(c.Examples))
	copy(ex, c.Examples)
	return New(ex)
}

// Shuffle permutes the corpus in place.
func (c *Corpus) Shuffle(rng *stats.RNG) {
	rng.Shuffle(len(c.Examples), func(i, j int) {
		c.Examples[i], c.Examples[j] = c.Examples[j], c.Examples[i]
	})
}

// SampleInbox draws a stratified random inbox of n messages with the
// given spam prevalence (fraction of spam, rounded to the nearest
// message), without replacement. It errors if either class pool is
// too small.
func (c *Corpus) SampleInbox(rng *stats.RNG, n int, spamPrevalence float64) (*Corpus, error) {
	if n < 0 {
		return nil, fmt.Errorf("corpus: SampleInbox n = %d", n)
	}
	if spamPrevalence < 0 || spamPrevalence > 1 {
		return nil, fmt.Errorf("corpus: SampleInbox prevalence = %v", spamPrevalence)
	}
	nSpam := int(float64(n)*spamPrevalence + 0.5)
	nHam := n - nSpam
	ham, spam := c.Ham(), c.Spam()
	if nHam > len(ham) {
		return nil, fmt.Errorf("corpus: need %d ham, have %d", nHam, len(ham))
	}
	if nSpam > len(spam) {
		return nil, fmt.Errorf("corpus: need %d spam, have %d", nSpam, len(spam))
	}
	out := &Corpus{Examples: make([]Example, 0, n)}
	for _, i := range rng.Sample(len(ham), nHam) {
		out.Add(ham[i], false)
	}
	for _, i := range rng.Sample(len(spam), nSpam) {
		out.Add(spam[i], true)
	}
	out.Shuffle(rng)
	return out, nil
}

// Fold is one train/test epoch of a cross-validation.
type Fold struct {
	Train *Corpus
	Test  *Corpus
}

// KFold partitions the corpus into k folds by striding (example i
// goes to test fold i mod k), which preserves class balance for a
// shuffled corpus. Each returned fold trains on the other k−1 parts.
// It errors unless 2 ≤ k ≤ Len().
func (c *Corpus) KFold(k int) ([]Fold, error) {
	if k < 2 || k > c.Len() {
		return nil, fmt.Errorf("corpus: KFold k = %d with %d examples", k, c.Len())
	}
	folds := make([]Fold, k)
	for i := range folds {
		folds[i].Train = &Corpus{}
		folds[i].Test = &Corpus{}
	}
	for i, e := range c.Examples {
		f := i % k
		folds[f].Test.Examples = append(folds[f].Test.Examples, e)
		for j := range folds {
			if j != f {
				folds[j].Train.Examples = append(folds[j].Train.Examples, e)
			}
		}
	}
	return folds, nil
}

// SplitFraction splits the corpus into a head containing round(frac ·
// Len()) examples and the remaining tail, preserving order. The
// dynamic threshold defense uses it to carve a validation half off
// the training set.
func (c *Corpus) SplitFraction(frac float64) (head, tail *Corpus, err error) {
	if frac < 0 || frac > 1 {
		return nil, nil, fmt.Errorf("corpus: SplitFraction frac = %v", frac)
	}
	n := int(float64(c.Len())*frac + 0.5)
	return New(c.Examples[:n:n]), New(c.Examples[n:]), nil
}

// SaveMboxPair writes the corpus as ham.mbox and spam.mbox in dir,
// creating the directory if needed.
func (c *Corpus) SaveMboxPair(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, msgs []*mail.Message) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		w := mail.NewMboxWriter(f)
		for _, m := range msgs {
			if err := w.WriteMessage(m); err != nil {
				f.Close()
				return err
			}
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write("ham.mbox", c.Ham()); err != nil {
		return err
	}
	return write("spam.mbox", c.Spam())
}

// LoadMboxPair reads a corpus previously written by SaveMboxPair.
func LoadMboxPair(dir string) (*Corpus, error) {
	read := func(name string) ([]*mail.Message, error) {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return mail.NewMboxReader(f).ReadAll()
	}
	ham, err := read("ham.mbox")
	if err != nil {
		return nil, err
	}
	spam, err := read("spam.mbox")
	if err != nil {
		return nil, err
	}
	return FromMessages(ham, spam), nil
}
