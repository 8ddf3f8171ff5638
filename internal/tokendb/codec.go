package tokendb

import (
	"fmt"
	"io"

	"repro/internal/binfmt"
	"repro/internal/tokenize"
)

// Both backends' database formats are a five-byte magic (four tag
// bytes and a version byte) followed by binfmt fields: unsigned
// varints and length-prefixed token bytes. Version 2 bodies write a
// symbol table — the nonzero tokens in sorted order, so identical
// databases serialize identically — and then records keyed by strictly
// increasing positions in it. Each backend keeps its own tag, header
// order and record sections; the pieces here are the ones they share
// on top of the one codec (internal/binfmt), which bounds every
// untrusted length and rejects trailing bytes. On top of it, counts
// must fit an int32, tokens are bounded, ids must be in bounds and
// strictly increasing, and a symbol table must not repeat a token.

// maxCount is the largest count a database may hold: one below 1<<31,
// since counts land in int32 fields and 1<<31 would wrap negative.
const maxCount = 1<<31 - 1

// maxTokenLen bounds one token's length.
const maxTokenLen = 1 << 20

// Encoder writes a database: the header and record fields through the
// embedded binfmt.Writer, the symbol table through Symbols, and the
// whole database to w in one Write at Flush.
type Encoder struct {
	*binfmt.Writer
	w io.Writer
}

// NewEncoder starts a database on w with its five-byte magic.
func NewEncoder(w io.Writer, magic string) *Encoder {
	return &Encoder{Writer: binfmt.NewWriter(magic, 0), w: w}
}

// Symbols writes the symbol table: len(toks), then each token. toks is
// the sorted Tokens list, so a record's id is its token's position in
// it. It first makes room for the table and the records keyed by it:
// the token bytes plus about eight bytes a token for its length, id
// and counts.
func (e *Encoder) Symbols(toks []string) {
	size := 0
	for _, t := range toks {
		size += len(t) + 8
	}
	e.Grow(size)
	e.Uvarint(uint64(len(toks)))
	for _, t := range toks {
		e.String(t)
	}
}

// Flush writes the database to w.
func (e *Encoder) Flush() error {
	_, err := e.w.Write(e.Data())
	return err
}

// Decoder reads a database body into a fresh DB. Its error is sticky
// (binfmt.Reader's): after the first failure every read returns zero
// and every Add is dropped, so a body reads straight through and
// reports Err at the end. Loops over untrusted counts stop as soon as
// Err is set.
type Decoder struct {
	db *DB
	r  *binfmt.Reader
}

// Decode replaces the database's symbol table and counts with those
// decoded from r, which it reads whole, keeping its name, tokenizer and
// counting; on error, trailing bytes included, the database is
// unchanged. magic is the four-byte tag, and bodies[v-1] decodes the
// body of format version v.
func (db *DB) Decode(r io.Reader, magic string, bodies ...func(*Decoder)) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("%s: reading the database: %w", db.name, err)
	}
	if len(data) < len(magic)+1 {
		return fmt.Errorf("%s: truncated magic (%d bytes)", db.name, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return fmt.Errorf("%s: bad magic %q", db.name, data[:len(magic)+1])
	}
	v := int(data[len(magic)])
	if v < 1 || v > len(bodies) {
		return fmt.Errorf("%s: unsupported format version %d", db.name, v)
	}
	fresh := New(db.name, db.tok, db.counting)
	d := &Decoder{db: &fresh, r: binfmt.NewReader(data[len(magic)+1:], db.name)}
	bodies[v-1](d)
	if err := d.r.End(); err != nil {
		return err
	}
	*db = fresh
	return nil
}

// Err returns the first error the body met.
func (d *Decoder) Err() error { return d.r.Err() }

// Count reads one count (a total, a length or a token count) and
// rejects one that does not fit an int32.
func (d *Decoder) Count(what string) int32 {
	v := d.r.Uvarint(what)
	if v > maxCount {
		d.r.Fail("implausible %s %d", what, v)
		return 0
	}
	return int32(v)
}

// SetCounts sets the trained-message totals the header declared.
func (d *Decoder) SetCounts(nspam, nham int32) {
	d.db.nspam, d.db.nham = nspam, nham
}

// Token reads one length-prefixed token and interns it, for a record
// keyed by token text (the version 1 formats). A repeated token adds
// to the same record.
func (d *Decoder) Token() tokenize.Sym {
	tok := d.r.Bytes("token")
	if len(tok) > maxTokenLen {
		d.r.Fail("implausible token length %d", len(tok))
	}
	if d.r.Err() != nil {
		return tokenize.NoSym
	}
	return d.db.intern(string(tok))
}

// Symbols reads a symbol table and returns its length. Interning a
// fresh token assigns exactly the next id, so the table interns in
// order and id i is its i'th token; a repeated token is an error.
func (d *Decoder) Symbols() int32 {
	n := d.Count("nsyms")
	for i := int32(0); i < n && d.r.Err() == nil; i++ {
		if id := d.Token(); d.r.Err() == nil && id != tokenize.Sym(i) {
			d.r.Fail("duplicate symbol %q", d.db.syms.Name(id))
		}
	}
	return n
}

// Records reads one record section over a symbol table of nsyms
// tokens: a record count no larger than nsyms, then that many records,
// each a strictly increasing in-bounds id followed by the fields rec
// reads.
func (d *Decoder) Records(nsyms int32, rec func(id tokenize.Sym)) {
	n := d.Count("record count")
	if n > nsyms {
		d.r.Fail("more records (%d) than symbols (%d)", n, nsyms)
	}
	prev := int64(-1)
	for i := int32(0); i < n && d.r.Err() == nil; i++ {
		id := d.r.Uvarint("record id")
		switch {
		case d.r.Err() != nil:
		case id >= uint64(nsyms):
			d.r.Fail("record id %d out of bounds (nsyms %d)", id, nsyms)
		case int64(id) <= prev:
			d.r.Fail("record ids not strictly increasing (%d after %d)", id, prev)
		default:
			prev = int64(id)
			rec(tokenize.Sym(id))
		}
	}
}

// Add adds n to one side of a record.
func (d *Decoder) Add(id tokenize.Sym, isSpam bool, n int32) {
	if d.r.Err() == nil {
		d.db.add(id, isSpam, n)
	}
}
