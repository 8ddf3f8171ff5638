// Package textgen generates the synthetic corpora that substitute for
// the paper's data artifacts (TREC 2005 email corpus, Usenet posting
// corpus): pseudo-word vocabularies with the segment structure the
// attacks exploit, Zipf-mixture language models for ham, spam and
// Usenet text, and complete email messages with synthesized headers.
//
// # Why a segmented vocabulary
//
// The paper's results rest on distributional relationships, not on
// English itself:
//
//   - ham and spam share a common function-word core but have largely
//     disjoint topical vocabularies;
//   - ham contains informal colloquialisms and misspellings that a
//     standard dictionary (GNU aspell) does not list, but a Usenet
//     corpus does — this is exactly why the paper's Usenet dictionary
//     attack beats the Aspell attack;
//   - a standard dictionary also lists tens of thousands of bookish
//     words that never occur in email (dead weight in attack emails);
//   - individual ham messages carry rare personal tokens (names,
//     ticket numbers) that no public word source covers — only the
//     infeasible "optimal" attack reaches them.
//
// The Universe type realizes those segments with deterministic
// pseudo-words; mixtures over the segments (model.go) then reproduce
// each text source.
package textgen

import (
	"fmt"
)

// Segment identifies one slice of the synthetic vocabulary.
type Segment int

const (
	// SegCommon holds function words: very frequent in every text
	// source and listed in the standard dictionary.
	SegCommon Segment = iota
	// SegStandard holds formal topical words: the bulk of ham
	// vocabulary, listed in the standard dictionary.
	SegStandard
	// SegFormal holds bookish dictionary-only words that never occur
	// in email or Usenet text (dictionary dead weight).
	SegFormal
	// SegColloquial holds slang and misspellings: common in Usenet
	// text, present in ham, absent from the standard dictionary.
	SegColloquial
	// SegSpam holds spam-topical words.
	SegSpam
	// SegPersonal holds rare personal tokens (names, identifiers)
	// unique to individual mailboxes; no word source lists them.
	SegPersonal

	numSegments = 6
)

// String returns the segment name.
func (s Segment) String() string {
	switch s {
	case SegCommon:
		return "common"
	case SegStandard:
		return "standard"
	case SegFormal:
		return "formal"
	case SegColloquial:
		return "colloquial"
	case SegSpam:
		return "spam"
	case SegPersonal:
		return "personal"
	default:
		return fmt.Sprintf("Segment(%d)", int(s))
	}
}

// Segments lists every segment in order.
func Segments() []Segment {
	return []Segment{SegCommon, SegStandard, SegFormal, SegColloquial, SegSpam, SegPersonal}
}

// UniverseConfig sets the segment sizes. The defaults are chosen so
// that the synthetic standard dictionary has exactly the paper's
// 98,568 aspell entries (common + standard + formal) and the Usenet
// top-90,000 lexicon overlaps it by the paper's ≈61,000 words
// (common + the 59,000 standard ranks Usenet text draws on).
type UniverseConfig struct {
	CommonWords     int
	StandardWords   int
	FormalWords     int
	ColloquialWords int
	SpamWords       int
	PersonalWords   int
}

// DefaultUniverseConfig returns the sizes used by every experiment.
func DefaultUniverseConfig() UniverseConfig {
	return UniverseConfig{
		CommonWords:     2000,
		StandardWords:   70000,
		FormalWords:     26568, // 2000 + 70000 + 26568 = 98,568 = |aspell 6.0-0|
		ColloquialWords: 29000,
		SpamWords:       12000,
		PersonalWords:   40000,
	}
}

// SmallUniverseConfig returns the scaled-down sizes, 1,810 words in
// all, of the small-scale experiments, the serving daemon and the
// tests: a universe that builds in milliseconds.
func SmallUniverseConfig() UniverseConfig {
	return UniverseConfig{
		CommonWords:     50,
		StandardWords:   700,
		FormalWords:     250,
		ColloquialWords: 290,
		SpamWords:       120,
		PersonalWords:   400,
	}
}

// Validate checks the configuration.
func (c UniverseConfig) Validate() error {
	sizes := []int{c.CommonWords, c.StandardWords, c.FormalWords, c.ColloquialWords, c.SpamWords, c.PersonalWords}
	total := 0
	for i, n := range sizes {
		if n <= 0 {
			return fmt.Errorf("textgen: segment %v size %d not positive", Segment(i), n)
		}
		total += n
	}
	if total > maxUniverseWords {
		return fmt.Errorf("textgen: universe of %d words exceeds the %d-word encoding", total, maxUniverseWords)
	}
	return nil
}

// Universe is the complete synthetic vocabulary, partitioned into
// segments. Words are unique across the whole universe and stable
// across runs (they are a pure function of global index).
type Universe struct {
	cfg    UniverseConfig
	words  []string
	bounds [numSegments + 1]int
}

// syllables for word synthesis: 20 onsets × 5 vowels = 100, giving a
// bijection between indices below 10^6 and three-syllable words.
var (
	wordOnsets = []string{"b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "x", "y", "z"}
	wordVowels = []string{"a", "e", "i", "o", "u"}
)

const (
	syllableCount    = 100 // len(wordOnsets) * len(wordVowels)
	maxUniverseWords = syllableCount * syllableCount * syllableCount
)

// wordForIndex returns the unique three-syllable pseudo-word for a
// global index in [0, maxUniverseWords).
func wordForIndex(i int) string {
	if i < 0 || i >= maxUniverseWords {
		panic(fmt.Sprintf("textgen: word index %d out of range", i))
	}
	var b [6]byte
	for pos := 2; pos >= 0; pos-- {
		s := i % syllableCount
		i /= syllableCount
		b[pos*2] = wordOnsets[s/len(wordVowels)][0]
		b[pos*2+1] = wordVowels[s%len(wordVowels)][0]
	}
	return string(b[:])
}

// NewUniverse constructs the vocabulary for a configuration.
func NewUniverse(cfg UniverseConfig) (*Universe, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sizes := []int{cfg.CommonWords, cfg.StandardWords, cfg.FormalWords, cfg.ColloquialWords, cfg.SpamWords, cfg.PersonalWords}
	u := &Universe{cfg: cfg}
	total := 0
	for _, n := range sizes {
		total += n
	}
	u.words = make([]string, total)
	idx := 0
	for seg, n := range sizes {
		u.bounds[seg] = idx
		for j := 0; j < n; j++ {
			u.words[idx] = wordForIndex(idx)
			idx++
		}
	}
	u.bounds[numSegments] = idx
	return u, nil
}

// MustUniverse is NewUniverse for known-good configurations.
func MustUniverse(cfg UniverseConfig) *Universe {
	u, err := NewUniverse(cfg)
	if err != nil {
		panic(err)
	}
	return u
}

// Config returns the universe's configuration.
func (u *Universe) Config() UniverseConfig { return u.cfg }

// Size returns the total number of words.
func (u *Universe) Size() int { return len(u.words) }

// Words returns the words of one segment, ordered by rank (rank 0 is
// the most frequent under any Zipf model over the segment). The
// returned slice is shared; callers must not modify it.
func (u *Universe) Words(seg Segment) []string {
	return u.words[u.bounds[seg]:u.bounds[seg+1]]
}

// SegmentSize returns the number of words in a segment.
func (u *Universe) SegmentSize(seg Segment) int {
	return u.bounds[seg+1] - u.bounds[seg]
}

// All returns every word in the universe (shared slice; do not
// modify). This is the token source for the paper's "optimal" attack.
func (u *Universe) All() []string { return u.words }

// SegmentOf returns the segment containing word, or ok=false for
// words outside the universe.
func (u *Universe) SegmentOf(word string) (Segment, bool) {
	// Binary search over bounds using the word's global index.
	idx, ok := indexForWord(word)
	if !ok || idx >= len(u.words) {
		return 0, false
	}
	for seg := 0; seg < numSegments; seg++ {
		if idx < u.bounds[seg+1] {
			return Segment(seg), true
		}
	}
	return 0, false
}

// indexForWord inverts wordForIndex.
func indexForWord(w string) (int, bool) {
	if len(w) != 6 {
		return 0, false
	}
	idx := 0
	for pos := 0; pos < 3; pos++ {
		on := onsetIndex(w[pos*2])
		vo := vowelIndex(w[pos*2+1])
		if on < 0 || vo < 0 {
			return 0, false
		}
		idx = idx*syllableCount + on*len(wordVowels) + vo
	}
	return idx, true
}

func onsetIndex(c byte) int {
	for i, o := range wordOnsets {
		if o[0] == c {
			return i
		}
	}
	return -1
}

func vowelIndex(c byte) int {
	for i, v := range wordVowels {
		if v[0] == c {
			return i
		}
	}
	return -1
}
