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
// messages, every probe. A probe asks for one of three evaluations —
// the filter as it stands, plus one ham message, or plus one spam
// message — and within an evaluation the query moves only the scores
// of the bound tokens it holds.
//
// A validationSet does the rest once per evaluation. Binding resolves
// the streams to interned ids, numbers their union and indexes, for
// each bound token, the messages that hold it. Building an evaluation
// scores every bound token twice, without the query's one count and
// with it: every score a token can take in that evaluation. Ranking
// those scores in clue order gives each token a rank without and with
// the query; equal scores share a rank, since they add equal
// logarithms. A message's sum then depends only on how many of its
// clues hold each rank: adding each rank's logarithms that many times,
// in rank order and capped at MaxDiscriminators, is the summation
// ScoreTokenStream performs over its sorted scores, so every score is
// bit for bit the one it computes. The build keeps each message's clue
// count per rank and its score.
//
// A probe patches. It looks up the query's tokens, and for each one
// whose rank the query's count changes it moves one count from the old
// rank to the new in every message that holds the token. Only those
// messages are summed again; every other keeps its built score. The
// patches are undone before the probe returns, so a probe computes,
// hashes and sorts no score and allocates nothing.
//
// The tables hold the counts they were built from. The filter's
// database counts its learns and unlearns, and the first evaluation
// after the count moves rebuilds the tables, at about the cost of a
// bind. The as-it-stands evaluation, which serves only RONI's
// baseline, borrows the ham evaluation's tables and leaves them to be
// rebuilt.

// validationSet is a validation set bound to one filter.
type validationSet struct {
	f     *Filter
	syms  *tokenize.Symbols // the table vocab's ids belong to
	vocab []tokenize.Sym    // the streams' distinct tokens
	local []int32           // Sym → index in vocab, -1 outside it
	offs  []int32           // vocab entry u is held by the messages held[offs[u]:offs[u+1]]
	held  []int32

	// The evaluations with one more ham message and with one more spam
	// message, built on first use.
	evals [2]evaluation

	// Build scratch.
	groupOf map[float64]uint32 // score → index in groups
	groups  []clueGroup        // the distinct clue scores
	order   []uint32           // groups in clue order

	// Probe scratch, sized at bind time so a probe allocates nothing.
	moved   []int32   // vocab entries the query moved to another rank
	touched []bool    // messages holding a moved entry
	scores  []float64 // I(E) of each stream, from the last evaluation
}

// evaluation is the tables of one evaluation: the filter's counts
// plus one message of one label.
type evaluation struct {
	built     bool
	mutations uint64    // the filter's mutation count the tables hold
	rank, alt []uint32  // vocab entry → clue rank without and with the query's count, noClue if no clue
	lnF       []float64 // ln f(w) by rank
	lnNotF    []float64 // ln(1 − f(w)) by rank
	counts    []uint32  // message m's clues per rank, counts[m*len(lnF):][:len(lnF)]
	clues     []uint64  // message m's ranks with clues, clues[m*words:][:words]
	present   []uint64  // clues, plus the ranks a probe moved clues to
	words     int       // bitmap words per message
	base      []float64 // each message's score when the query holds none of its tokens
}

// noClue marks a vocab entry that is no clue in an evaluation.
const noClue = ^uint32(0)

// clueGroup is the scores sharing one rank.
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
	v := &validationSet{f: f, syms: f.Symbols(), groupOf: make(map[float64]uint32)}
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
	// Index the messages holding each entry: count, then fill.
	v.offs = make([]int32, len(v.vocab)+1)
	for _, id := range ids {
		v.offs[v.local[id]+1]++
	}
	for u := range v.vocab {
		v.offs[u+1] += v.offs[u]
	}
	v.held = make([]int32, len(ids))
	next := slices.Clone(v.offs[:len(v.vocab)])
	for m := range streams {
		for _, id := range ids[offs[m]:offs[m+1]] {
			u := v.local[id]
			v.held[next[u]] = int32(m)
			next[u]++
		}
	}
	v.moved = make([]int32, 0, len(v.vocab))
	v.touched = make([]bool, len(streams))
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
	nspam, nham := f.totals()
	if q == nil {
		e := &v.evals[0]
		v.build(e, nspam, nham, false)
		copy(v.scores, e.base)
		e.built = false
		return
	}
	e := &v.evals[0]
	if qSpam {
		e = &v.evals[1]
		nspam++
	} else {
		nham++
	}
	if !e.built || e.mutations != f.Mutations() {
		v.build(e, nspam, nham, qSpam)
	}

	// Patch: move each bound token the query holds to its rank with the
	// query's count, in every message that holds it. Tokens outside the
	// set cannot move any bound score.
	nr := len(e.lnF)
	for i := 0; i < q.Len(); i++ {
		id, ok := v.syms.LookupToken(q.At(i))
		if !ok || int(id) >= len(v.local) || v.local[id] < 0 {
			continue
		}
		u := v.local[id]
		from, to := e.rank[u], e.alt[u]
		if from == to {
			continue
		}
		v.moved = append(v.moved, u)
		for _, m := range v.held[v.offs[u]:v.offs[u+1]] {
			if from != noClue {
				e.counts[int(m)*nr+int(from)]--
			}
			if to != noClue {
				e.counts[int(m)*nr+int(to)]++
				e.present[int(m)*e.words+int(to/64)] |= 1 << (to % 64)
			}
			v.touched[m] = true
		}
	}
	for m, t := range v.touched {
		if t {
			v.scores[m] = e.sum(m, f.opts.MaxDiscriminators)
			v.touched[m] = false
			copy(e.present[m*e.words:(m+1)*e.words], e.clues[m*e.words:])
		} else {
			v.scores[m] = e.base[m]
		}
	}
	// Undo the patches.
	for _, u := range v.moved {
		from, to := e.rank[u], e.alt[u]
		for _, m := range v.held[v.offs[u]:v.offs[u+1]] {
			if from != noClue {
				e.counts[int(m)*nr+int(from)]++
			}
			if to != noClue {
				e.counts[int(m)*nr+int(to)]--
			}
		}
	}
	v.moved = v.moved[:0]
}

// build fills e from the filter's counts against the totals nspam and
// nham, a query counting in the spam column if qSpam and in the ham
// column otherwise.
func (v *validationSet) build(e *evaluation, nspam, nham int32, qSpam bool) {
	f := v.f
	if e.rank == nil {
		e.rank = make([]uint32, len(v.vocab))
		e.alt = make([]uint32, len(v.vocab))
		e.base = make([]float64, len(v.scores))
	}

	// Score each entry without and with the query's count, and group
	// the clues by score.
	v.groups = v.groups[:0]
	clear(v.groupOf)
	for u, id := range v.vocab {
		r := f.At(id)
		e.rank[u] = v.group(f.scoreCounts(r, nspam, nham))
		if qSpam {
			r.Spam++
		} else {
			r.Ham++
		}
		e.alt[u] = v.group(f.scoreCounts(r, nspam, nham))
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
	e.lnF, e.lnNotF = e.lnF[:0], e.lnNotF[:0]
	for rank, g := range v.order {
		v.groups[g].rank = uint32(rank)
		lnF, lnNotF := clueLogs(v.groups[g].score)
		e.lnF = append(e.lnF, lnF)
		e.lnNotF = append(e.lnNotF, lnNotF)
	}
	for u := range v.vocab {
		if g := e.rank[u]; g != noClue {
			e.rank[u] = v.groups[g].rank
		}
		if g := e.alt[u]; g != noClue {
			e.alt[u] = v.groups[g].rank
		}
	}

	// Count each message's clues per rank, and score it.
	nr := len(e.lnF)
	if n := len(v.scores) * nr; cap(e.counts) < n {
		e.counts = make([]uint32, n)
	} else {
		e.counts = e.counts[:n]
		clear(e.counts)
	}
	e.words = (nr + 63) / 64
	if n := len(v.scores) * e.words; cap(e.present) < n {
		e.present = make([]uint64, n)
	} else {
		e.present = e.present[:n]
		clear(e.present)
	}
	for u, rank := range e.rank {
		if rank == noClue {
			continue
		}
		for _, m := range v.held[v.offs[u]:v.offs[u+1]] {
			e.counts[int(m)*nr+int(rank)]++
			e.present[int(m)*e.words+int(rank/64)] |= 1 << (rank % 64)
		}
	}
	e.clues = append(e.clues[:0], e.present...)
	for m := range e.base {
		e.base[m] = e.sum(m, f.opts.MaxDiscriminators)
	}
	e.built, e.mutations = true, f.Mutations()
}

// group returns the index in v.groups of score s's group, adding the
// group if s is new, or noClue if s is no clue.
func (v *validationSet) group(s float64) uint32 {
	d := math.Abs(s - 0.5)
	if d < v.f.opts.MinProbStrength {
		return noClue
	}
	g, ok := v.groupOf[s]
	if !ok {
		g = uint32(len(v.groups))
		v.groupOf[s] = g
		v.groups = append(v.groups, clueGroup{dist: d, score: s})
	}
	return g
}

// sum is message m's I(E): its clues in rank order, capped at max.
func (e *evaluation) sum(m, max int) float64 {
	nr := len(e.lnF)
	row := e.counts[m*nr : (m+1)*nr]
	var lnF, lnNotF float64
	n := 0
	for w, word := range e.present[m*e.words : (m+1)*e.words] {
		for ; word != 0; word &= word - 1 {
			rank := w*64 + bits.TrailingZeros64(word)
			x, y := e.lnF[rank], e.lnNotF[rank]
			c := min(int(row[rank]), max-n)
			for k := 0; k < c; k++ {
				lnF += x
				lnNotF += y
			}
			n += c
		}
	}
	return fisher(lnF, lnNotF, n)
}
