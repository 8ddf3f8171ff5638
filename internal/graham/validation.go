package graham

import (
	"math"

	"repro/internal/engine"
	"repro/internal/tokenize"
)

// validationSet is a validation set bound to one filter. The RONI
// defense (§5.1) labels it once per probe, as the filter would after
// learning the probed message. Binding resolves the streams to
// interned ids once; a probe adds the query's occurrence counts to the
// bound ids on the side and scores each stream through the same prob,
// insertCand and bayesProduct as ScoreTokenStream, so every label is
// the one learn → ClassifyTokenStream → unlearn gives.
type validationSet struct {
	f    *Filter
	syms *tokenize.Symbols // the table ids belong to
	ids  []tokenize.Sym    // every stream's tokens, concatenated
	offs []int             // stream i is ids[offs[i]:offs[i+1]]
	add  []int32           // per probe: the query's count of each bound id
	sel  []cand            // per probe: one stream's selection
}

// BindValidation binds streams to the filter. It interns every token
// of the streams with zero counts — scores do not change, since an
// unseen token already scores UnknownProb — so that learning a token
// later updates the counts the set reads. Interning mutates the symbol
// table: BindValidation follows the same single-writer discipline as
// Learn. Streams must come from the filter's tokenizer.
func (f *Filter) BindValidation(streams []*tokenize.TokenStream) engine.ValidationSet {
	v := &validationSet{f: f, syms: f.Symbols(), sel: make([]cand, 0, f.opts.MaxTokens)}
	v.ids, v.offs = f.InternStreams(streams)
	v.add = make([]int32, v.syms.Len())
	return v
}

// ClassifyWith labels every bound stream as the filter would after
// learning q with label qSpam (nil q: as it stands).
func (v *validationSet) ClassifyWith(q *tokenize.TokenStream, qSpam bool, out []engine.Label) {
	f := v.f
	if f.Symbols() != v.syms {
		panic("graham: validation set used after Load replaced the filter's symbol table")
	}
	nbad, ngood := f.Counts()
	if q != nil {
		if qSpam {
			nbad++
		} else {
			ngood++
		}
		v.tally(q, 1)
		defer v.tally(q, -1)
	}
	for i := range out {
		s := f.opts.UnknownProb
		if ids := v.ids[v.offs[i]:v.offs[i+1]]; len(ids) > 0 {
			sel := v.sel[:0]
			for _, id := range ids {
				r := f.At(id)
				good, bad := r.Ham, r.Spam
				if qSpam {
					bad += v.add[id]
				} else {
					good += v.add[id]
				}
				p := f.prob(int(good), int(bad), ngood, nbad)
				sel = insertCand(sel, f.opts.MaxTokens, cand{p: p, dist: math.Abs(p - 0.5), tok: v.syms.Name(id)})
			}
			s = bayesProduct(sel)
		}
		out[i], _ = f.labelFor(s)
	}
}

// tally adds sign times q's occurrence counts to the ids interned when
// the set was bound; q's other tokens cannot move a bound score.
func (v *validationSet) tally(q *tokenize.TokenStream, sign int32) {
	for i := 0; i < q.Len(); i++ {
		if id, ok := v.syms.LookupToken(q.At(i)); ok && int(id) < len(v.add) {
			v.add[id] += sign * int32(q.Count(i))
		}
	}
}
