// Package binfmt is the one binary codec under every saved format: the
// snapshot record and the version-1 admission sidecar
// (internal/engine), the admission state payloads (internal/admission)
// and both backends' token databases (internal/tokendb). Each format
// keeps its own magic, versions and field order; how a field is laid
// out, and how an untrusted length, count or float is bounded, is
// decided here once.
//
// A Writer appends fields to one byte slice and can seal it with a
// CRC-32 trailer. A Reader walks untrusted bytes: its first error
// sticks, its counts are bounded by the bytes left, its byte strings
// alias the input with their capacity capped, its floats are finite,
// and End rejects trailing bytes. Open checks the framing the
// checksummed records share: magic, version range and CRC.
package binfmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// MaxUvarintLen is the longest encoding of one uvarint, for callers
// that size a Writer ahead.
const MaxUvarintLen = binary.MaxVarintLen64

// Writer appends encoded fields to one byte slice.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer whose output starts with prefix (a
// format's magic, or nothing) and has room for size more bytes.
func NewWriter(prefix string, size int) *Writer {
	return &Writer{buf: append(make([]byte, 0, len(prefix)+size), prefix...)}
}

// Grow makes room for n more bytes, so a writer that learns its size
// late appends them without reallocating.
func (w *Writer) Grow(n int) { w.buf = slices.Grow(w.buf, n) }

// Uvarint appends v as an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Bytes appends p's length as a uvarint, then p.
func (w *Writer) Bytes(p []byte) {
	w.Uvarint(uint64(len(p)))
	w.buf = append(w.buf, p...)
}

// String appends s's length as a uvarint, then s.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Uint64 appends v as a big-endian 64-bit word.
func (w *Writer) Uint64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

// Float64 appends v's IEEE 754 bits as a big-endian 64-bit word.
func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// Bool appends one byte, 1 for true and 0 for false.
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.buf = append(w.buf, b)
}

// Data returns the bytes written so far.
func (w *Writer) Data() []byte { return w.buf }

// Seal appends the big-endian CRC-32 (IEEE) of every byte written and
// returns the sealed bytes, which Open reads back.
func (w *Writer) Seal() []byte {
	w.buf = binary.BigEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(w.buf))
	return w.buf
}

// Reader reads fields from untrusted bytes. Its first error sticks:
// every later read returns a zero value, so a decoder reads a format
// straight through and checks Err, or End, once. Loops over a decoded
// count stop early on their own, since a failed Count is 0.
type Reader struct {
	rest []byte // the unread bytes
	what string // the format, prefixing errors
	err  error
}

// NewReader returns a Reader over data; what names the format in its
// errors (for example "engine: snapshot").
func NewReader(data []byte, what string) *Reader {
	return &Reader{rest: data, what: what}
}

// Err returns the first error.
func (r *Reader) Err() error { return r.err }

// Fail records a format-level error, prefixed with the format's name,
// unless an earlier error is already recorded.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(r.what+": "+format, args...)
	}
}

// End returns the first error, or an error if bytes are left unread:
// trailing bytes are corruption, not padding.
func (r *Reader) End() error {
	if len(r.rest) != 0 {
		r.Fail("%d trailing bytes", len(r.rest))
	}
	return r.err
}

// Uvarint reads one unsigned varint.
func (r *Reader) Uvarint(field string) uint64 { return r.uvarint(field, "") }

// uvarint reads one unsigned varint; an error names field then suffix,
// kept apart so that a read that succeeds builds no string.
func (r *Reader) uvarint(field, suffix string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.rest)
	if n <= 0 {
		r.Fail("%s%s: malformed or truncated uvarint", field, suffix)
		return 0
	}
	r.rest = r.rest[n:]
	return v
}

// Count reads the uvarint count of items that take at least size bytes
// each, so a corrupt count cannot demand more items than the bytes left
// can hold.
func (r *Reader) Count(field string, size int) int {
	n := r.Uvarint(field)
	if r.err == nil && n > uint64(len(r.rest)/size) {
		r.Fail("%s %d with %d bytes left", field, n, len(r.rest))
		return 0
	}
	return int(n)
}

// Bytes reads one length-prefixed byte string. It aliases the input,
// with its capacity capped so an append cannot overwrite what follows.
func (r *Reader) Bytes(field string) []byte {
	n := r.uvarint(field, " length")
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.rest)) {
		r.Fail("%s truncated (%d bytes, %d left)", field, n, len(r.rest))
		return nil
	}
	b := r.rest[:n:n]
	r.rest = r.rest[n:]
	return b
}

// String reads one length-prefixed string.
func (r *Reader) String(field string) string { return string(r.Bytes(field)) }

// Uint64 reads one big-endian 64-bit word.
func (r *Reader) Uint64(field string) uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.rest) < 8 {
		r.Fail("%s truncated", field)
		return 0
	}
	v := binary.BigEndian.Uint64(r.rest)
	r.rest = r.rest[8:]
	return v
}

// Float64 reads one big-endian IEEE 754 word and rejects NaN and the
// infinities: no saved quantity is one, and a non-finite value slips
// past every comparison a decoder would bound it with.
func (r *Reader) Float64(field string) float64 {
	v := math.Float64frombits(r.Uint64(field))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Fail("%s %v is not finite", field, v)
		return 0
	}
	return v
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool(field string) bool {
	if r.err != nil {
		return false
	}
	if len(r.rest) == 0 || r.rest[0] > 1 {
		r.Fail("%s: not a bool", field)
		return false
	}
	v := r.rest[0] == 1
	r.rest = r.rest[1:]
	return v
}

// Open checks the framing of a checksummed record: a four-byte magic,
// a version byte from 1 to newest, and a trailing big-endian CRC-32
// (IEEE) of every preceding byte, as Seal writes it. It returns the
// version and a Reader over the fields between; what names the record
// in errors.
func Open(data []byte, magic string, newest byte, what string) (byte, *Reader, error) {
	if len(data) < len(magic)+1+4 {
		return 0, nil, fmt.Errorf("%s: truncated (%d bytes)", what, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return 0, nil, fmt.Errorf("%s: bad magic %q", what, data[:len(magic)])
	}
	v := data[len(magic)]
	if v < 1 || v > newest {
		return 0, nil, fmt.Errorf("%s: format version %d, want 1 to %d", what, v, newest)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if sum, stored := crc32.ChecksumIEEE(body), binary.BigEndian.Uint32(tail); sum != stored {
		return 0, nil, fmt.Errorf("%s: checksum mismatch (have %08x, stored %08x)", what, sum, stored)
	}
	return v, NewReader(body[len(magic)+1:], what), nil
}
