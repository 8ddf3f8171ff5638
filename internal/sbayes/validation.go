package sbayes

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/engine"
	"repro/internal/tokenize"
)

// The RONI defense (§5.1) measures a candidate's impact by scoring
// each trial's fixed validation set once per probe: 5 trials × 50
// messages, every probe. Scored one message at a time, that repeats
// the same work hundreds of times — a symbol-table lookup per token,
// f(w) per occurrence of a token that recurs across the set, and a
// full clue sort per message.
//
// A validationSet does that work once per set instead. Binding
// resolves the streams to interned ids and numbers their union. Each
// evaluation then scores every union token once and groups the clues
// by score: a trial's counts are small, so its clues take few distinct
// scores. Ranking the groups ranks every clue of every message at
// once. Tokens with equal scores add equal logarithms, so a message's
// sum depends only on how many of its clues fall in each group: adding
// the groups' logarithms that many times each, in rank order, is the
// summation ScoreTokenStream performs over its sorted scores, and every
// score is bit-for-bit the one ScoreTokenStream computes.

// validationSet is a validation set bound to one filter.
type validationSet struct {
	f     *Filter
	syms  *tokenize.Symbols // the table vocab's ids belong to
	vocab []tokenize.Sym    // the streams' distinct tokens
	local []int32           // Sym → index in vocab, -1 outside it
	toks  []int32           // every stream's tokens as vocab indices, concatenated
	offs  []int             // stream i is toks[offs[i]:offs[i+1]]

	// Per-evaluation scratch, sized at bind time so evaluating
	// allocates nothing.
	hit     []bool             // vocab entries the what-if message contains
	group   []uint32           // vocab index → index in groups, noClue if no clue
	groups  []clueGroup        // the distinct clue scores
	groupOf map[float64]uint32 // score → index in groups
	order   []uint32           // groups in clue order
	lnF     []float64          // ln f(w) by group rank
	lnNotF  []float64          // ln(1 − f(w)) by group rank
	count   []uint32           // one stream's clues per group rank
	present []uint64           // one stream's group ranks, as a bitmap
	scores  []float64          // I(E) of each stream, from the last evaluation
}

// noClue marks a vocab entry that is no clue in the current evaluation.
const noClue = ^uint32(0)

// clueGroup is the union tokens sharing one clue score.
type clueGroup struct {
	dist, score float64
	rank        uint32 // position in clue order
}

// BindValidation binds streams to the filter. It interns every token
// of the streams with zero counts — scores do not change, since an
// unseen token already scores the prior — so that learning a token
// later updates the record the set reads. Interning mutates the
// symbol table: BindValidation follows the same single-writer
// discipline as Learn. Streams must come from the filter's tokenizer.
func (f *Filter) BindValidation(streams []*tokenize.TokenStream) engine.ValidationSet {
	ids, offs := f.InternStreams(streams)
	v := &validationSet{f: f, syms: f.Symbols(), offs: offs}
	v.local = make([]int32, v.syms.Len())
	for i := range v.local {
		v.local[i] = -1
	}
	for _, id := range ids {
		if v.local[id] < 0 {
			v.local[id] = int32(len(v.vocab))
			v.vocab = append(v.vocab, id)
		}
	}
	v.toks = make([]int32, len(ids))
	for i, id := range ids {
		v.toks[i] = v.local[id]
	}
	n := len(v.vocab)
	v.hit = make([]bool, n)
	v.group = make([]uint32, n)
	v.groupOf = make(map[float64]uint32)
	v.lnF = make([]float64, n)
	v.lnNotF = make([]float64, n)
	v.count = make([]uint32, n)
	v.present = make([]uint64, (n+63)/64)
	v.scores = make([]float64, len(streams))
	return v
}

// ClassifyWith labels every bound stream as the filter would after
// learning q with label qSpam (nil q: as it stands).
func (v *validationSet) ClassifyWith(q *tokenize.TokenStream, qSpam bool, out []engine.Label) {
	v.score(q, qSpam)
	for i, s := range v.scores {
		out[i] = v.f.opts.LabelFor(s)
	}
}

// score fills v.scores with every stream's I(E) against the filter's
// counts plus q's.
func (v *validationSet) score(q *tokenize.TokenStream, qSpam bool) {
	f := v.f
	if f.Symbols() != v.syms {
		panic("sbayes: validation set used after Load replaced the filter's symbol table")
	}
	// What learning q would change: one more message in its class, and
	// one more count on each of its tokens. Tokens outside the set
	// cannot move any bound score.
	nspam, nham := f.totals()
	if q != nil {
		if qSpam {
			nspam++
		} else {
			nham++
		}
		for i := 0; i < q.Len(); i++ {
			if id, ok := v.syms.LookupToken(q.At(i)); ok && int(id) < len(v.local) && v.local[id] >= 0 {
				v.hit[v.local[id]] = true
			}
		}
	}

	// Score each union token once and group the clues by score.
	v.groups = v.groups[:0]
	clear(v.groupOf)
	for u, id := range v.vocab {
		r := f.At(id)
		if v.hit[u] {
			v.hit[u] = false
			if qSpam {
				r.Spam++
			} else {
				r.Ham++
			}
		}
		s := f.scoreCounts(r, nspam, nham)
		d := math.Abs(s - 0.5)
		if d < f.opts.MinProbStrength {
			v.group[u] = noClue
			continue
		}
		g, ok := v.groupOf[s]
		if !ok {
			g = uint32(len(v.groups))
			v.groupOf[s] = g
			v.groups = append(v.groups, clueGroup{dist: d, score: s})
		}
		v.group[u] = g
	}

	// Rank the groups in clue order.
	v.order = v.order[:0]
	for g := range v.groups {
		v.order = append(v.order, uint32(g))
	}
	slices.SortFunc(v.order, func(a, b uint32) int {
		ga, gb := &v.groups[a], &v.groups[b]
		return compareStrength(ga.dist, ga.score, gb.dist, gb.score)
	})
	for rank, g := range v.order {
		v.groups[g].rank = uint32(rank)
		v.lnF[rank], v.lnNotF[rank] = clueLogs(v.groups[g].score)
	}

	// Each stream's δ(E) is its clues in rank order, capped: count
	// them per group, mark the groups present in a bitmap, and read
	// the bitmap back in ascending rank order.
	words := v.present[:(len(v.groups)+63)/64]
	for i := range v.scores {
		for _, u := range v.toks[v.offs[i]:v.offs[i+1]] {
			if g := v.group[u]; g != noClue {
				rank := v.groups[g].rank
				words[rank/64] |= 1 << (rank % 64)
				v.count[rank]++
			}
		}
		var lnF, lnNotF float64
		n := 0
		for w, word := range words {
			words[w] = 0
			for ; word != 0; word &= word - 1 {
				rank := w*64 + bits.TrailingZeros64(word)
				for c := v.count[rank]; c > 0 && n < f.opts.MaxDiscriminators; c-- {
					lnF += v.lnF[rank]
					lnNotF += v.lnNotF[rank]
					n++
				}
				v.count[rank] = 0
			}
		}
		v.scores[i] = fisher(lnF, lnNotF, n)
	}
}
