package serve

// The request decoder: one reflection-free pass from wire bytes to a
// *mail.Message, for NDJSON batch lines and for /classify, /score and
// /learn bodies.
//
// It decodes exactly as encoding/json decodes the wire types, which the
// differential fuzz target holds it to:
//
//   - a batch line follows json.Unmarshal into WireMessage: the line is
//     one JSON value and nothing else, and unknown keys are skipped;
//   - a body follows json.Decoder with DisallowUnknownFields into
//     ClassifyRequest or LearnRequest: only the first value is read,
//     and an unknown key at any level is an error;
//   - keys match fields exactly or under Unicode case folding ("BODY",
//     and "ſpam" for spam); null leaves a field as it was; a repeated
//     key decodes over the earlier value, so a second header array
//     decodes over the first one's elements; invalid UTF-8 and lone
//     surrogates become U+FFFD; values nest at most 10000 deep.
//
// Every decoded string is its own allocation, never a view of the
// input: the line and body buffers are reused, while learn mail lives
// on in the learn queue and in quarantine.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/mail"
)

// maxDepth is encoding/json's nesting limit: at most this many objects
// and arrays open at once, counting the top-level value.
const maxDepth = 10000

// maxPooledBuf is the size of a batch's line buffer, and caps the
// scratch buffers a pooled decoder keeps, so one large body or line
// does not pin its buffer for the life of the pool.
const maxPooledBuf = 64 << 10

// errShort reports input that ends inside a value.
var errShort = errors.New("unexpected end of JSON input")

// plain marks the bytes a string literal holds verbatim: printable
// ASCII other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// wireDecoder decodes one message at a time. Decoders are pooled:
// take one with getDecoder and hand it back with release.
type wireDecoder struct {
	data   []byte // the input being decoded
	pos    int    // next unread byte of data
	strict bool   // unknown keys are errors
	depth  int    // objects and arrays open
	stack  []byte // the closing byte of each container skip has open

	// The message so far. hdr[:n] is the header; hdr[n:] holds the
	// elements a longer, earlier header array left behind, which a
	// later array in the same message decodes over, as encoding/json
	// does when it reuses a slice's backing array.
	body string
	hdr  []mail.Field
	n    int
	spam bool

	str []byte // unquoting scratch
	buf []byte // read buffer: a single body, or a batch's lines
}

var decoders = sync.Pool{New: func() any { return new(wireDecoder) }}

func getDecoder() *wireDecoder { return decoders.Get().(*wireDecoder) }

// release drops every reference into the last message and returns d to
// the pool.
func (d *wireDecoder) release() {
	d.reset(nil, false)
	if cap(d.buf) > maxPooledBuf {
		d.buf = nil
	}
	if cap(d.str) > maxPooledBuf {
		d.str = nil
	}
	decoders.Put(d)
}

func (d *wireDecoder) reset(data []byte, strict bool) {
	d.data, d.pos, d.strict, d.depth = data, 0, strict, 0
	d.stack = d.stack[:0]
	d.body, d.spam = "", false
	d.dropHeader()
}

// dropHeader empties the header and forgets the elements behind it, as
// encoding/json does when it decodes null or [] into a slice.
func (d *wireDecoder) dropHeader() {
	clear(d.hdr)
	d.hdr, d.n = d.hdr[:0], 0
}

// message returns the decoded message. Its header is a fresh,
// exact-size slice; nil when empty, as WireMessage.Mail builds it.
func (d *wireDecoder) message() *mail.Message {
	m := &mail.Message{Body: d.body}
	if d.n > 0 {
		m.Header = make(mail.Header, d.n)
		copy(m.Header, d.hdr[:d.n])
	}
	return m
}

// line decodes one NDJSON batch line.
func (d *wireDecoder) line(b []byte) (*mail.Message, error) {
	d.reset(b, false)
	if err := d.wireMessage(); err != nil {
		return nil, err
	}
	if _, err := d.peek(); err != errShort {
		return nil, d.syntax("after top-level value")
	}
	return d.message(), nil
}

// request reads and decodes a single-message body: a ClassifyRequest,
// or a LearnRequest when learn is set. Like json.Decoder it reads only
// as far as the first value needs, so bytes after it are never read,
// and a value that does not end within what r yields is an error.
func (d *wireDecoder) request(r io.Reader, learn bool) (*mail.Message, bool, error) {
	d.buf = d.buf[:0]
	var end valueEnd
	for {
		if len(d.buf) == cap(d.buf) {
			d.buf = slices.Grow(d.buf, max(cap(d.buf), 4<<10))
		}
		n, rerr := r.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+n]
		if !end.scan(d.buf) && rerr == nil {
			continue
		}
		d.reset(d.buf, true)
		err := d.requestValue(learn, rerr == io.EOF)
		switch {
		case err == nil:
			return d.message(), d.spam, nil
		case err != errShort:
			return nil, false, err
		case rerr == io.EOF:
			return nil, false, io.ErrUnexpectedEOF
		case rerr != nil:
			return nil, false, rerr
		}
	}
}

// valueEnd finds, across reads, where the first JSON value in a buffer
// ends, so request parses a body once it is complete instead of after
// every read. It tracks only strings and nesting; the parse judges
// everything else.
type valueEnd struct {
	pos   int // bytes of the buffer examined
	depth int // objects and arrays open
	inStr bool
	done  bool
}

// scan examines the bytes of b not seen yet and reports whether b holds
// the first value whole. A top-level scalar counts as whole at its
// first byte: the parse then asks for more input if it needs it.
func (e *valueEnd) scan(b []byte) bool {
	for !e.done && e.pos < len(b) {
		if e.inStr {
			q := bytes.IndexByte(b[e.pos:], '"')
			if q < 0 {
				e.pos = len(b)
				break
			}
			q += e.pos
			e.pos = q + 1
			k := q
			for b[k-1] == '\\' {
				k--
			}
			if (q-k)%2 == 0 { // not escaped
				e.inStr = false
				e.done = e.depth == 0
			}
			continue
		}
		c := b[e.pos]
		e.pos++
		switch c {
		case ' ', '\t', '\n', '\r':
		case '"':
			e.inStr = true
		case '{', '[':
			e.depth++
		case '}', ']':
			e.depth--
			e.done = e.depth <= 0
		default:
			e.done = e.depth == 0
		}
	}
	return e.done
}

// requestValue decodes the top-level value of a single-message body;
// eof says nothing follows d.data.
func (d *wireDecoder) requestValue(learn, eof bool) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		// json.Decoder ends a top-level literal only at the byte after
		// it, or at EOF.
		if d.pos == len(d.data) && !eof {
			return errShort
		}
		return nil
	case '{':
	default:
		return d.typeError(c, "request")
	}
	return d.members(func(key []byte) error {
		switch {
		case foldEq(key, "message"):
			return d.wireMessage()
		case learn && foldEq(key, "spam"):
			return d.boolValue(&d.spam)
		}
		return d.unknown(key)
	})
}

// wireMessage decodes a WireMessage value: an object or null.
func (d *wireDecoder) wireMessage() error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.typeError(c, "message")
	}
	return d.members(func(key []byte) error {
		switch {
		case foldEq(key, "header"):
			return d.header()
		case foldEq(key, "body"):
			return d.stringValue(&d.body)
		}
		return d.unknown(key)
	})
}

// header decodes the header array the way encoding/json decodes a
// slice: element i decodes over whatever hdr[i] holds, null or an empty
// array leaves a fresh empty header, and a shorter array truncates.
func (d *wireDecoder) header() error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		d.dropHeader()
		return d.literal("null")
	case '[':
	default:
		return d.typeError(c, "header")
	}
	i := 0
	more, err := d.enter(']')
	for ; more && err == nil; more, err = d.next(']') {
		if i == len(d.hdr) {
			d.hdr = append(d.hdr, mail.Field{})
		}
		if err := d.field(&d.hdr[i]); err != nil {
			return err
		}
		i++
	}
	if err != nil {
		return err
	}
	if i == 0 {
		d.dropHeader()
	}
	d.n = i
	return nil
}

// field decodes one header element, an object or null, over f.
func (d *wireDecoder) field(f *mail.Field) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.typeError(c, "header field")
	}
	return d.members(func(key []byte) error {
		switch {
		case foldEq(key, "name"):
			return d.stringValue(&f.Name)
		case foldEq(key, "value"):
			return d.stringValue(&f.Value)
		}
		return d.unknown(key)
	})
}

// members walks the object at d.pos, calling member with each key once
// d stands at the key's value; member must consume the value.
func (d *wireDecoder) members(member func(key []byte) error) error {
	more, err := d.enter('}')
	for ; more && err == nil; more, err = d.next('}') {
		key, err := d.key()
		if err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
	}
	return err
}

// enter steps into the object or array at d.pos, which close ends. It
// reports whether the container has members; an empty one it steps
// straight out of.
func (d *wireDecoder) enter(close byte) (bool, error) {
	if d.depth++; d.depth > maxDepth {
		return false, fmt.Errorf("exceeded max depth at offset %d", d.pos)
	}
	d.pos++
	c, err := d.peek()
	switch {
	case err != nil:
		return false, err
	case c != close:
		return true, nil
	}
	d.pos++
	d.depth--
	return false, nil
}

// next steps over the comma after a member, reporting true, or out of
// the container when close follows instead, reporting false.
func (d *wireDecoder) next(close byte) (bool, error) {
	c, err := d.peek()
	switch {
	case err != nil:
		return false, err
	case c == ',':
		d.pos++
		return true, nil
	case c == close:
		d.pos++
		d.depth--
		return false, nil
	case close == '}':
		return false, d.syntax("after object key:value pair")
	}
	return false, d.syntax("after array element")
}

// key reads an object key and its colon. The key aliases the input or
// the unquoting scratch, so it is only good until the next string.
func (d *wireDecoder) key() ([]byte, error) {
	c, err := d.peek()
	if err != nil {
		return nil, err
	}
	if c != '"' {
		return nil, d.syntax("looking for beginning of object key string")
	}
	data, start := d.data, d.pos+1
	i := start
	for i < len(data) && plain[data[i]] {
		i++
	}
	var key []byte
	if i < len(data) && data[i] == '"' {
		key, d.pos = data[start:i], i+1
	} else if key, err = d.unquote(start, i); err != nil {
		return nil, err
	}
	if c, err = d.peek(); err != nil {
		return nil, err
	}
	if c != ':' {
		return nil, d.syntax("after object key")
	}
	d.pos++
	return key, nil
}

// unknown handles a key no field matches: an error on a body, skipped
// on a batch line.
func (d *wireDecoder) unknown(key []byte) error {
	if d.strict {
		return fmt.Errorf("unknown field %q", key)
	}
	return d.skip()
}

// stringValue decodes a string or null into *dst; null leaves it as it
// was.
func (d *wireDecoder) stringValue(dst *string) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return d.literal("null")
	case '"':
	default:
		return d.typeError(c, "string")
	}
	data, start := d.data, d.pos+1
	i := start
	for i < len(data) {
		c := data[i]
		if plain[c] {
			i++
			continue
		}
		if c == '"' {
			*dst, d.pos = string(data[start:i]), i+1
			return nil
		}
		if c < utf8.RuneSelf {
			break
		}
		r, size := utf8.DecodeRune(data[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	b, err := d.unquote(start, i)
	if err != nil {
		return err
	}
	*dst = string(b)
	return nil
}

// boolValue decodes true, false or null into *dst; null leaves it as it
// was.
func (d *wireDecoder) boolValue(dst *bool) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return d.literal("null")
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	}
	return d.typeError(c, "bool")
}

// unquote decodes the string literal whose contents begin at start,
// given that data[start:i] needs no decoding, into d.str. It leaves
// d.pos past the closing quote.
func (d *wireDecoder) unquote(start, i int) ([]byte, error) {
	data := d.data
	b := append(d.str[:0], data[start:i]...)
	for i < len(data) {
		switch c := data[i]; {
		case plain[c]:
			j := i + 1
			for j < len(data) && plain[data[j]] {
				j++
			}
			b = append(b, data[i:j]...)
			i = j
		case c == '"':
			d.pos, d.str = i+1, b[:0]
			return b, nil
		case c == '\\':
			if i+1 == len(data) {
				return nil, errShort
			}
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r, err := d.hex4(i + 2)
				if err != nil {
					return nil, err
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// A valid pair decodes together; anything else
					// leaves U+FFFD for this half alone.
					pair := unicode.ReplacementChar
					if i+1 < len(data) && data[i] == '\\' && data[i+1] == 'u' {
						if r2, err := d.hex4(i + 2); err == nil {
							pair = utf16.DecodeRune(r, r2)
						}
					}
					if r = pair; r != unicode.ReplacementChar {
						i += 6
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.pos = i + 1
				return nil, d.syntax("in string escape code")
			}
			i += 2
		case c < ' ':
			d.pos = i
			return nil, d.syntax("in string literal")
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				b = utf8.AppendRune(b, utf8.RuneError)
			} else {
				b = append(b, data[i:i+size]...)
			}
			i += size
		}
	}
	return nil, errShort
}

// hex4 decodes the four hex digits of a \u escape at data[i:].
func (d *wireDecoder) hex4(i int) (rune, error) {
	var r rune
	for k := i; k < i+4; k++ {
		if k == len(d.data) {
			return 0, errShort
		}
		c := d.data[k]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			d.pos = k
			return 0, d.syntax("in \\u hexadecimal character escape")
		}
		r = r<<4 | rune(c)
	}
	return r, nil
}

// skip validates and steps over one value of any type.
func (d *wireDecoder) skip() error {
	base := len(d.stack)
	for {
		// A value starts here.
		c, err := d.peek()
		if err != nil {
			return err
		}
		more := false // a container was entered and has members
		switch c {
		case '{', '[':
			close := byte('}')
			if c == '[' {
				close = ']'
			}
			if more, err = d.enter(close); more {
				d.stack = append(d.stack, close)
			}
		case '"':
			err = d.skipString()
		case 't':
			err = d.literal("true")
		case 'f':
			err = d.literal("false")
		case 'n':
			err = d.literal("null")
		default:
			err = d.number()
		}
		// Step out of every container the value completed.
		for err == nil && !more && len(d.stack) > base {
			if more, err = d.next(d.stack[len(d.stack)-1]); !more {
				d.stack = d.stack[:len(d.stack)-1]
			}
		}
		switch {
		case err != nil:
			return err
		case !more:
			return nil
		case d.stack[len(d.stack)-1] == '}':
			if err := d.skipKey(); err != nil {
				return err
			}
		}
	}
}

// skipKey validates and steps over an object key and its colon.
func (d *wireDecoder) skipKey() error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c != '"' {
		return d.syntax("looking for beginning of object key string")
	}
	if err := d.skipString(); err != nil {
		return err
	}
	if c, err = d.peek(); err != nil {
		return err
	}
	if c != ':' {
		return d.syntax("after object key")
	}
	d.pos++
	return nil
}

// skipString validates and steps over a string literal.
func (d *wireDecoder) skipString() error {
	data := d.data
	for i := d.pos + 1; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			return nil
		case c == '\\':
			if i+1 == len(data) {
				return errShort
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				if _, err := d.hex4(i + 2); err != nil {
					return err
				}
				i += 5
			default:
				d.pos = i + 1
				return d.syntax("in string escape code")
			}
		case c < ' ':
			d.pos = i
			return d.syntax("in string literal")
		}
	}
	return errShort
}

// number validates and steps over a number.
func (d *wireDecoder) number() error {
	data, i := d.data, d.pos
	// digits steps over one or more digits.
	digits := func() error {
		start := i
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		switch {
		case i > start:
			return nil
		case i == len(data):
			return errShort
		}
		d.pos = i
		return d.syntax("in numeric literal")
	}
	if data[i] == '-' {
		i++
	}
	switch {
	case i == len(data):
		return errShort
	case data[i] == '0':
		i++
	case '1' <= data[i] && data[i] <= '9':
		if err := digits(); err != nil {
			return err
		}
	default:
		d.pos = i
		return d.syntax("looking for beginning of value")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if err := digits(); err != nil {
			return err
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if err := digits(); err != nil {
			return err
		}
	}
	d.pos = i
	return nil
}

// literal steps over the literal lit (true, false or null).
func (d *wireDecoder) literal(lit string) error {
	for k := 0; k < len(lit); k++ {
		if d.pos+k == len(d.data) {
			return errShort
		}
		if d.data[d.pos+k] != lit[k] {
			d.pos += k
			return d.syntax("in literal " + lit)
		}
	}
	d.pos += len(lit)
	return nil
}

// peek skips whitespace and returns the next byte without consuming
// it, or errShort at the end of the input.
func (d *wireDecoder) peek() (byte, error) {
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c, nil
		}
	}
	return 0, errShort
}

// syntax reports an unexpected byte at d.pos.
func (d *wireDecoder) syntax(context string) error {
	if d.pos >= len(d.data) {
		return errShort
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.data[d.pos], context, d.pos)
}

// typeError reports a value of the wrong JSON type for target.
func (d *wireDecoder) typeError(c byte, target string) error {
	var kind string
	switch c {
	case '{':
		kind = "object"
	case '[':
		kind = "array"
	case '"':
		kind = "string"
	case 't', 'f':
		kind = "bool"
	case 'n':
		kind = "null"
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		kind = "number"
	default:
		return d.syntax("looking for beginning of value")
	}
	return fmt.Errorf("cannot decode %s into %s at offset %d", kind, target, d.pos)
}

// foldEq reports whether key selects the field name, a lower-case ASCII
// word, by encoding/json's rule: equal once every rune is folded to the
// smallest rune of its Unicode case-folding orbit. So "BODY" selects
// body, and "ſpam" (U+017F folds to S) selects spam.
func foldEq(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		if j == len(name) {
			return false
		}
		c := key[i]
		if c < utf8.RuneSelf {
			i++
		} else {
			r, size := utf8.DecodeRune(key[i:])
			i += size
			if r = foldRune(r); r >= utf8.RuneSelf {
				return false
			}
			c = byte(r)
		}
		// name is lower-case letters, which c matches in either case.
		if c|0x20 != name[j] {
			return false
		}
	}
	return j == len(name)
}

// foldRune returns the smallest rune in r's case-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}
