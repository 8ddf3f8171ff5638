// Package tokendb is the token-count database both learners train.
// The paper's attacks poison the statistical learning approach itself:
// the per-token spam and ham counts. SpamBayes (internal/sbayes) and
// Graham's 2002 baseline (internal/graham) differ only in how they
// combine those counts into a score, and in one counting choice —
// SpamBayes counts a token once per trained message, Graham counts
// every occurrence — so both embed one DB and keep only their options
// and scoring rule on top of it.
//
// A DB interns token text to dense tokenize.Sym ids and keeps one
// Record per id in a flat slice indexed by it, so the per-token state
// clones with one memcpy (the symbol table clones copy-on-write) and a
// scorer resolves a stream token to its counts with one map lookup. It
// owns the message and stream learners, validate-then-mutate
// unlearning, the vocabulary counter, the registry name a save stamps
// (BackendName), and the parts of the on-disk format both backends
// share (codec.go) on top of the one binary codec (internal/binfmt).
//
// A DB is not safe for concurrent mutation; concurrent reads without
// interleaved learning are safe.
package tokendb

import (
	"fmt"
	"sort"

	"repro/internal/mail"
	"repro/internal/tokenize"
)

// Record holds one token's training counts: the spam and ham messages
// that contained it (Presence) or its spam and ham occurrences
// (Occurrences).
type Record struct {
	Spam, Ham int32
}

// Counting is how a learner counts a token in one trained message.
// Each backend fixes it when it constructs its DB.
type Counting uint8

const (
	// Presence counts a token once per message it appears in
	// (SpamBayes).
	Presence Counting = iota
	// Occurrences counts every occurrence of a token (Graham).
	Occurrences
)

// DB is one learner's token-count database.
type DB struct {
	name        string // the backend's name, prefixing errors
	counting    Counting
	tok         *tokenize.Tokenizer
	syms        *tokenize.Symbols
	recs        []Record // indexed by tokenize.Sym; len(recs) == syms.Len()
	nspam, nham int32    // trained messages
	vocab       int      // records with a nonzero count
	mutations   uint64   // learns and unlearns applied
}

// New returns an empty database. name, the backend's registry name,
// prefixes its errors and is what BackendName reports; a nil tokenizer
// selects tokenize.Default().
func New(name string, tok *tokenize.Tokenizer, counting Counting) DB {
	if tok == nil {
		tok = tokenize.Default()
	}
	return DB{name: name, counting: counting, tok: tok, syms: tokenize.NewSymbols()}
}

// BackendName returns the registry name of the backend that embeds the
// database, the name a save stamps its record with.
func (db *DB) BackendName() string { return db.name }

// Tokenizer returns the tokenizer the database learns with.
func (db *DB) Tokenizer() *tokenize.Tokenizer { return db.tok }

// Counts returns the number of spam and ham messages trained.
func (db *DB) Counts() (nspam, nham int) { return int(db.nspam), int(db.nham) }

// Mutations returns the number of learns and unlearns the database has
// applied. A reader that caches what it computed from the counts
// compares it to see whether they may have changed since: the totals
// alone miss a learn followed by an unlearn of another message with the
// same label.
func (db *DB) Mutations() uint64 { return db.mutations }

// VocabSize returns the number of distinct tokens with a nonzero count.
// It is maintained on zero↔nonzero transitions, so it is O(1) even
// though tokens unlearned back to zero keep their interned ids.
func (db *DB) VocabSize() int { return db.vocab }

// Lookup returns a token's record (zero if never interned or unlearned
// back to zero). Token-keyed scoring reads counts through it.
func (db *DB) Lookup(token string) Record {
	if id, ok := db.syms.Lookup(token); ok {
		return db.recs[id]
	}
	return Record{}
}

// At returns the record of an interned id, as a validation set bound
// by InternStreams reads it.
func (db *DB) At(id tokenize.Sym) Record { return db.recs[id] }

// Symbols returns the symbol table the record ids belong to. Decoding a
// database replaces it, so a validation set compares it with the table
// it bound against.
func (db *DB) Symbols() *tokenize.Symbols { return db.syms }

// TokenCounts returns a token's raw spam and ham counts.
func (db *DB) TokenCounts(token string) (spam, ham int) {
	r := db.Lookup(token)
	return int(r.Spam), int(r.Ham)
}

// Tokens returns every token with a nonzero count, in sorted order.
// Intended for persistence and debugging; O(V log V).
func (db *DB) Tokens() []string {
	out := make([]string, 0, db.vocab)
	for id, r := range db.recs {
		if r != (Record{}) {
			out = append(out, db.syms.Name(tokenize.Sym(id)))
		}
	}
	sort.Strings(out)
	return out
}

// InternStreams interns every token of streams with zero counts and
// returns their ids concatenated, stream i at ids[offs[i]:offs[i+1]].
// No score moves, since an unseen token already scores as unknown, but
// learning a token later updates the record its id reads. Interning
// mutates the symbol table, so it follows the same single-writer
// discipline as Learn. Streams must come from the database's tokenizer.
func (db *DB) InternStreams(streams []*tokenize.TokenStream) (ids []tokenize.Sym, offs []int) {
	offs = make([]int, 1, len(streams)+1)
	for _, ts := range streams {
		for i := 0; i < ts.Len(); i++ {
			ids = append(ids, db.intern(string(ts.At(i))))
		}
		offs = append(offs, len(ids))
	}
	return ids, offs
}

// intern assigns (or finds) the token's dense id and keeps recs in
// step with the symbol table.
func (db *DB) intern(token string) tokenize.Sym {
	id := db.syms.Intern(token)
	if int(id) == len(db.recs) {
		db.recs = append(db.recs, Record{})
	}
	return id
}

// add adjusts one side of a record by a signed delta, maintaining the
// vocabulary counter across zero↔nonzero transitions.
func (db *DB) add(id tokenize.Sym, isSpam bool, n int32) {
	r := &db.recs[id]
	wasZero := *r == (Record{})
	if isSpam {
		r.Spam += n
	} else {
		r.Ham += n
	}
	if isZero := *r == (Record{}); wasZero && !isZero {
		db.vocab++
	} else if !wasZero && isZero {
		db.vocab--
	}
}

// delta is what weight copies of a message add to the count of its
// stream's i'th distinct token.
func (db *DB) delta(ts *tokenize.TokenStream, i int, w int32) int32 {
	if db.counting == Occurrences {
		return int32(ts.Count(i)) * w
	}
	return w
}

// Learn trains one message with the given label.
func (db *DB) Learn(m *mail.Message, isSpam bool) {
	db.LearnTokenStream(db.tok.Stream(m), isSpam, 1)
}

// LearnWeighted trains as if weight identical copies of the message
// were learned. Every count is linear in the copies, so this is exactly
// Learn called weight times; the attack experiments train hundreds of
// identical attack emails in one pass with it. It panics if weight < 0.
func (db *DB) LearnWeighted(m *mail.Message, isSpam bool, weight int) {
	db.LearnTokenStream(db.tok.Stream(m), isSpam, weight)
}

// LearnTokenStream trains a tokenized message weight times. Under
// Presence each distinct token counts once per copy and the stream's
// occurrence counts are ignored; under Occurrences each counts its
// occurrences per copy.
func (db *DB) LearnTokenStream(ts *tokenize.TokenStream, isSpam bool, weight int) {
	if weight < 0 {
		panic(db.name + ": negative learn weight")
	}
	if weight == 0 {
		return
	}
	w := int32(weight)
	db.mutations++
	if isSpam {
		db.nspam += w
	} else {
		db.nham += w
	}
	for i := 0; i < ts.Len(); i++ {
		db.add(db.intern(string(ts.At(i))), isSpam, db.delta(ts, i, w))
	}
}

// Unlearn removes one previously trained message. It returns an error,
// leaving the database unchanged, if the counts show the message was
// not trained with this label.
func (db *DB) Unlearn(m *mail.Message, isSpam bool) error {
	return db.UnlearnTokenStream(db.tok.Stream(m), isSpam, 1)
}

// UnlearnTokenStream is the inverse of LearnTokenStream. It checks that
// every count covers what it removes before mutating anything, so a
// failed unlearn leaves the database untouched.
func (db *DB) UnlearnTokenStream(ts *tokenize.TokenStream, isSpam bool, weight int) error {
	if weight < 0 {
		panic(db.name + ": negative unlearn weight")
	}
	if weight == 0 {
		return nil
	}
	w := int32(weight)
	total, label := &db.nham, "ham"
	if isSpam {
		total, label = &db.nspam, "spam"
	}
	if *total < w {
		return fmt.Errorf("%s: unlearn %s underflow (have %d, remove %d)", db.name, label, *total, w)
	}
	for i := 0; i < ts.Len(); i++ {
		r, d := db.Lookup(string(ts.At(i))), db.delta(ts, i, w)
		if isSpam && r.Spam < d || !isSpam && r.Ham < d {
			return fmt.Errorf("%s: unlearn underflow on token %q", db.name, ts.At(i))
		}
	}
	db.mutations++
	*total -= w
	for i := 0; i < ts.Len(); i++ {
		// The check above proved every token interned with enough count.
		id, _ := db.syms.LookupToken(ts.At(i))
		db.add(id, isSpam, -db.delta(ts, i, w))
	}
	return nil
}

// Clone returns an independent copy of the database: the symbol table
// clones copy-on-write (O(1)) and the record slice copies with one
// memcpy. Backends clone through it to branch a snapshot off a serving
// filter or a poisoned filter off a clean baseline.
func (db *DB) Clone() DB {
	c := *db
	c.syms = db.syms.Clone()
	c.recs = append(make([]Record, 0, len(db.recs)), db.recs...)
	return c
}
