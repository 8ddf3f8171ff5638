package sbayes

import (
	"io"

	"repro/internal/tokendb"
	"repro/internal/tokenize"
)

// Binary database format, version 2 (all integers unsigned varints):
//
//	magic   "SBDB\x02"
//	nspam, nham
//	nsyms,  nsyms × { len(token), token bytes }      — the symbol table
//	nrecs,  nrecs × { id, spamcount, hamcount }      — per-symbol counts
//
// Symbols are written in sorted token order and records with strictly
// increasing ids, so identical databases always serialize identically.
// Save canonicalizes: only tokens with nonzero counts are written, so
// in saved databases nrecs == nsyms and id == index — but the decoder
// accepts any subset with increasing in-bounds ids, and treats the id
// bounds as untrusted input (FuzzSBayesSaveLoad exercises exactly
// that surface). Version 1 ("SBDB\x01": nspam, nham, ntokens ×
// {token, spam, ham}) remains loadable; Save always writes v2. The
// symbol table, record sections and count bounds are the part both
// backends share (internal/tokendb), over the one binary codec under
// every saved format (internal/binfmt). Options and tokenizer
// configuration are the caller's to manage (they are code, not data).

// Save writes the token database to w (format version 2).
func (f *Filter) Save(w io.Writer) error {
	e := tokendb.NewEncoder(w, "SBDB\x02")
	nspam, nham := f.Counts()
	e.Uvarint(uint64(nspam))
	e.Uvarint(uint64(nham))
	// Every canonical symbol has nonzero counts, so nrecs == nsyms and
	// id == index.
	toks := f.Tokens()
	e.Symbols(toks)
	e.Uvarint(uint64(len(toks)))
	for i, t := range toks {
		r := f.Lookup(t)
		e.Uvarint(uint64(i))
		e.Uvarint(uint64(r.Spam))
		e.Uvarint(uint64(r.Ham))
	}
	return e.Flush()
}

// Load replaces the filter's trained state with a database written by
// Save, keeping its options and tokenizer. On error, trailing bytes
// included, the filter is left unchanged. It is the engine.Persistable
// counterpart of the package-level Load.
func (f *Filter) Load(r io.Reader) error {
	return f.Decode(r, "SBDB", loadV1, loadV2)
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

// loadV1 decodes the version-1 body: nspam, nham, then ntokens ×
// {token, spam, ham}.
func loadV1(d *tokendb.Decoder) {
	d.SetCounts(d.Count("nspam"), d.Count("nham"))
	n := d.Count("ntokens")
	for i := int32(0); i < n && d.Err() == nil; i++ {
		id := d.Token()
		d.Add(id, true, d.Count("spam count"))
		d.Add(id, false, d.Count("ham count"))
	}
}

// loadV2 decodes the version-2 body: nspam, nham, the symbol table,
// then one section of {spam, ham} records keyed by symbol id.
func loadV2(d *tokendb.Decoder) {
	d.SetCounts(d.Count("nspam"), d.Count("nham"))
	d.Records(d.Symbols(), func(id tokenize.Sym) {
		d.Add(id, true, d.Count("spam count"))
		d.Add(id, false, d.Count("ham count"))
	})
}
