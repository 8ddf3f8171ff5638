package graham

import (
	"io"

	"repro/internal/tokendb"
	"repro/internal/tokenize"
)

// Binary database format, version 2 (all integers unsigned varints),
// mirroring the sbayes v2 format but with Graham's two occurrence
// sides sharing one symbol table:
//
//	magic   "GRDB\x02"
//	ngood, nbad
//	nsyms,     nsyms     × { len(token), token bytes }   — symbol table
//	ngoodrecs, ngoodrecs × { id, count }                 — ham side
//	nbadrecs,  nbadrecs  × { id, count }                 — spam side
//
// Symbols are written in sorted token order (the union of both sides'
// nonzero tokens) and each record section with strictly increasing
// ids, so identical databases always serialize identically. The
// decoder treats ids as untrusted input: out-of-bounds, repeated or
// decreasing ids and duplicate symbols are rejected
// (FuzzGrahamSaveLoad exercises exactly that surface). Version 1
// ("GRDB\x01": ngood, nbad, then per side ntokens × {token, count})
// remains loadable; Save always writes v2. The symbol table, record
// sections and count bounds are the part both backends share
// (internal/tokendb), over the one binary codec under every saved
// format (internal/binfmt). Options and tokenizer configuration are
// the caller's to manage (they are code, not data).

// Save writes the token database to w (format version 2).
func (f *Filter) Save(w io.Writer) error {
	e := tokendb.NewEncoder(w, "GRDB\x02")
	nbad, ngood := f.Counts()
	e.Uvarint(uint64(ngood))
	e.Uvarint(uint64(nbad))
	toks := f.Tokens()
	e.Symbols(toks)
	// One record section per side, ham (good) first, keyed by
	// canonical (sorted-order) id.
	sides := [2][]int32{make([]int32, len(toks)), make([]int32, len(toks))}
	for i, t := range toks {
		r := f.Lookup(t)
		sides[0][i], sides[1][i] = r.Ham, r.Spam
	}
	for _, counts := range sides {
		nrecs := 0
		for _, n := range counts {
			if n != 0 {
				nrecs++
			}
		}
		e.Uvarint(uint64(nrecs))
		for i, n := range counts {
			if n != 0 {
				e.Uvarint(uint64(i))
				e.Uvarint(uint64(n))
			}
		}
	}
	return e.Flush()
}

// Load replaces the filter's trained state with a database written by
// Save, keeping its options and tokenizer. On error, trailing bytes
// included, the filter is left unchanged.
func (f *Filter) Load(r io.Reader) error {
	return f.Decode(r, "GRDB", loadV1, loadV2)
}

// Load reads a token database written by Save (format version 1 or
// 2), returning a filter with the given options and tokenizer (nil
// selects defaults).
func Load(r io.Reader, opts Options, tok *tokenize.Tokenizer) (*Filter, error) {
	f := New(opts, tok)
	if err := f.Load(r); err != nil {
		return nil, err
	}
	return f, nil
}

// loadV1 decodes the version-1 body: ngood, nbad, then per side, ham
// first, ntokens × {token, count}.
func loadV1(d *tokendb.Decoder) {
	ngood, nbad := d.Count("ngood"), d.Count("nbad")
	d.SetCounts(nbad, ngood)
	for _, isSpam := range []bool{false, true} {
		n := d.Count("token count")
		for i := int32(0); i < n && d.Err() == nil; i++ {
			d.Add(d.Token(), isSpam, d.Count("occurrence count"))
		}
	}
}

// loadV2 decodes the version-2 body: ngood, nbad, the shared symbol
// table, then one record section per side, ham first, of {id, count}.
func loadV2(d *tokendb.Decoder) {
	ngood, nbad := d.Count("ngood"), d.Count("nbad")
	d.SetCounts(nbad, ngood)
	nsyms := d.Symbols()
	for _, isSpam := range []bool{false, true} {
		d.Records(nsyms, func(id tokenize.Sym) {
			d.Add(id, isSpam, d.Count("occurrence count"))
		})
	}
}
