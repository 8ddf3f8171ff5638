package tokendb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/tokenize"
)

// Both backends' database formats are a five-byte magic (four tag
// bytes and a version byte) followed by unsigned varints and
// length-prefixed token bytes. Version 2 bodies write a symbol table —
// the nonzero tokens in sorted order, so identical databases serialize
// identically — and then records keyed by strictly increasing
// positions in it. Each backend keeps its own tag, header order and
// record sections; the pieces here are the ones they share. Every
// value is untrusted input: counts are bounded, ids must be in bounds
// and strictly increasing, a symbol table must not repeat a token, and
// nothing may follow the body.

// maxCount is the largest count a database may hold: one below 1<<31,
// since counts land in int32 fields and 1<<31 would wrap negative.
const maxCount = 1<<31 - 1

// maxTokenLen bounds one token's length, so a corrupt length prefix
// cannot demand a huge buffer.
const maxTokenLen = 1 << 20

// Encoder writes a database. It relies on bufio.Writer's sticky
// error: after a failed write every later write is dropped and Flush
// reports the first error.
type Encoder struct {
	bw  *bufio.Writer
	buf [binary.MaxVarintLen64]byte
}

// NewEncoder starts a database on w with its five-byte magic.
func NewEncoder(w io.Writer, magic string) *Encoder {
	e := &Encoder{bw: bufio.NewWriter(w)}
	e.bw.WriteString(magic)
	return e
}

// Uvarint writes one unsigned varint.
func (e *Encoder) Uvarint(v uint64) {
	n := binary.PutUvarint(e.buf[:], v)
	e.bw.Write(e.buf[:n])
}

// Symbols writes the symbol table: len(toks), then each token's length
// and bytes. toks is the sorted Tokens list, so a record's id is its
// token's position in it.
func (e *Encoder) Symbols(toks []string) {
	e.Uvarint(uint64(len(toks)))
	for _, t := range toks {
		e.Uvarint(uint64(len(t)))
		e.bw.WriteString(t)
	}
}

// Flush writes what is buffered and reports the first write error.
func (e *Encoder) Flush() error { return e.bw.Flush() }

// Decoder reads a database body into a fresh DB. Its error is sticky:
// after the first failure every read returns zero and every Add is
// dropped, so a body reads straight through and reports Err at the
// end. Loops over untrusted lengths stop as soon as Err is set.
type Decoder struct {
	db  *DB
	br  *bufio.Reader
	tok []byte
	err error
}

// Decode replaces the database's symbol table and counts with those
// decoded from r, keeping its name, tokenizer and counting; on error,
// trailing bytes included, the database is unchanged. magic is the four-byte tag, and bodies[v-1] decodes the
// body of format version v.
func (db *DB) Decode(r io.Reader, magic string, bodies ...func(*Decoder)) error {
	fresh := New(db.name, db.tok, db.counting)
	d := &Decoder{db: &fresh, br: bufio.NewReader(r), tok: make([]byte, 0, 64)}
	var head [5]byte
	if _, err := io.ReadFull(d.br, head[:]); err != nil {
		return fmt.Errorf("%s: reading magic: %w", db.name, err)
	}
	if string(head[:4]) != magic {
		return fmt.Errorf("%s: bad magic %q", db.name, head[:])
	}
	if v := int(head[4]); v < 1 || v > len(bodies) {
		return fmt.Errorf("%s: unsupported format version %d", db.name, v)
	}
	bodies[head[4]-1](d)
	if d.err != nil {
		return d.err
	}
	switch _, err := d.br.ReadByte(); {
	case err == nil:
		return fmt.Errorf("%s: trailing bytes after the database", db.name)
	case err != io.EOF:
		return fmt.Errorf("%s: reading past the database: %w", db.name, err)
	}
	*db = fresh
	return nil
}

// Err returns the first error the body met.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(d.db.name+": "+format, args...)
	}
}

// uvarint reads one unsigned varint.
func (d *Decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.br)
	if err != nil {
		d.fail("reading %s: %w", what, err)
	}
	return v
}

// Count reads one count (a total, a length or a token count) and
// rejects one that does not fit an int32.
func (d *Decoder) Count(what string) int32 {
	v := d.uvarint(what)
	if v > maxCount {
		d.fail("implausible %s %d", what, v)
		return 0
	}
	return int32(v)
}

// SetCounts sets the trained-message totals the header declared.
func (d *Decoder) SetCounts(nspam, nham int32) {
	d.db.nspam, d.db.nham = nspam, nham
}

// token reads one length-prefixed token into the reused buffer.
func (d *Decoder) token() []byte {
	n := d.uvarint("token length")
	if n > maxTokenLen {
		d.fail("implausible token length %d", n)
	}
	if d.err != nil {
		return nil
	}
	if uint64(cap(d.tok)) < n {
		d.tok = make([]byte, n)
	}
	d.tok = d.tok[:n]
	if _, err := io.ReadFull(d.br, d.tok); err != nil {
		d.fail("reading token: %w", err)
	}
	return d.tok
}

// Token reads one length-prefixed token and interns it, for a record
// keyed by token text (the version 1 formats). A repeated token adds
// to the same record.
func (d *Decoder) Token() tokenize.Sym {
	tok := d.token()
	if d.err != nil {
		return tokenize.NoSym
	}
	return d.db.intern(string(tok))
}

// Symbols reads a symbol table and returns its length. Interning a
// fresh token assigns exactly the next id, so the table interns in
// order and id i is its i'th token; a repeated token is an error.
func (d *Decoder) Symbols() int32 {
	n := d.Count("nsyms")
	for i := int32(0); i < n && d.err == nil; i++ {
		tok := d.token()
		if d.err == nil && d.db.intern(string(tok)) != tokenize.Sym(i) {
			d.fail("duplicate symbol %q", tok)
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
		d.fail("more records (%d) than symbols (%d)", n, nsyms)
	}
	prev := int64(-1)
	for i := int32(0); i < n && d.err == nil; i++ {
		id := d.uvarint("record id")
		switch {
		case d.err != nil:
		case id >= uint64(nsyms):
			d.fail("record id %d out of bounds (nsyms %d)", id, nsyms)
		case int64(id) <= prev:
			d.fail("record ids not strictly increasing (%d after %d)", id, prev)
		default:
			prev = int64(id)
			rec(tokenize.Sym(id))
		}
	}
}

// Add adds n to one side of a record.
func (d *Decoder) Add(id tokenize.Sym, isSpam bool, n int32) {
	if d.err == nil {
		d.db.add(id, isSpam, n)
	}
}
