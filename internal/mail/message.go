// Package mail implements the email substrate the reproduction rests
// on: an RFC-822-style message model, parsing and serialization, mbox
// archive I/O, and synthetic header generation for the generated
// corpora.
//
// SpamBayes tokenizes message headers as well as bodies, and the
// paper's attacks differ precisely in how they construct headers
// (empty for dictionary attacks, copied from a random training spam
// for the focused attack), so messages carry a full ordered header
// rather than a bag of strings.
package mail

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Field is a single header field. Name retains its original spelling;
// lookups are case-insensitive.
type Field struct {
	Name  string
	Value string
}

// EqualFieldName reports whether two header field names are equal,
// ignoring ASCII case. RFC 5322 field names are printable ASCII, so no
// Unicode folding applies: unlike strings.EqualFold, "ſubject" (with a
// long s) does not name the Subject field. Every header lookup and the
// tokenizer's header walk compare names through it.
func EqualFieldName(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		x, y := a[i], b[i]
		if 'A' <= x && x <= 'Z' {
			x += 'a' - 'A'
		}
		if 'A' <= y && y <= 'Z' {
			y += 'a' - 'A'
		}
		if x != y {
			return false
		}
	}
	return true
}

// Header is an ordered sequence of header fields. Order is preserved
// because real mail software (and the SpamBayes tokenizer) observes it.
type Header []Field

// Get returns the value of the first field with the given name
// (ASCII case-insensitive), or "" if the header has no such field.
func (h Header) Get(name string) string {
	for _, f := range h {
		if EqualFieldName(f.Name, name) {
			return f.Value
		}
	}
	return ""
}

// GetAll returns the values of every field with the given name, in
// order of appearance.
func (h Header) GetAll(name string) []string {
	var vals []string
	for _, f := range h {
		if EqualFieldName(f.Name, name) {
			vals = append(vals, f.Value)
		}
	}
	return vals
}

// Has reports whether a field with the given name exists.
func (h Header) Has(name string) bool {
	for _, f := range h {
		if EqualFieldName(f.Name, name) {
			return true
		}
	}
	return false
}

// Add appends a field to the header.
func (h *Header) Add(name, value string) {
	*h = append(*h, Field{Name: name, Value: value})
}

// Set replaces the first field with the given name, or appends one if
// none exists. Additional fields with the same name are left in place.
func (h *Header) Set(name, value string) {
	for i, f := range *h {
		if EqualFieldName(f.Name, name) {
			(*h)[i].Value = value
			return
		}
	}
	h.Add(name, value)
}

// Clone returns a deep copy of the header.
func (h Header) Clone() Header {
	if h == nil {
		return nil
	}
	c := make(Header, len(h))
	copy(c, h)
	return c
}

// Message is a single email: an ordered header and a flat text body.
// The zero value is an empty message, which is valid (the paper's
// dictionary attack emails have empty headers).
type Message struct {
	Header Header
	Body   string
}

// Clone returns a deep copy of the message.
func (m *Message) Clone() *Message {
	return &Message{Header: m.Header.Clone(), Body: m.Body}
}

// Subject is a convenience accessor for the Subject header field.
func (m *Message) Subject() string { return m.Header.Get("Subject") }

// From is a convenience accessor for the From header field.
func (m *Message) From() string { return m.Header.Get("From") }

// WriteTo serializes the message in RFC-822 style: header fields as
// "Name: value" lines, a blank separator line, then the body. Header
// values containing newlines are folded with a leading tab so the
// output always re-parses to an equivalent message.
func (m *Message) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(c int, err error) error {
		n += int64(c)
		return err
	}
	for _, f := range m.Header {
		val := strings.ReplaceAll(f.Value, "\n", "\n\t")
		if err := count(fmt.Fprintf(bw, "%s: %s\n", f.Name, val)); err != nil {
			return n, err
		}
	}
	if err := count(bw.WriteString("\n")); err != nil {
		return n, err
	}
	if err := count(bw.WriteString(m.Body)); err != nil {
		return n, err
	}
	if m.Body != "" && !strings.HasSuffix(m.Body, "\n") {
		if err := count(bw.WriteString("\n")); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// String returns the serialized form of the message.
func (m *Message) String() string {
	var b strings.Builder
	if _, err := m.WriteTo(&b); err != nil {
		// strings.Builder never fails; this is unreachable.
		panic(err)
	}
	return b.String()
}

// Parse reads one RFC-822-style message from r: header lines up to the
// first blank line (folded continuation lines are unfolded), then the
// body until EOF. A message with no blank line is treated as all
// header; a message starting with a blank line has an empty header.
// CRLF line endings are accepted in the header (the CR is stripped);
// body bytes are preserved as read.
func Parse(r io.Reader) (*Message, error) {
	br := bufio.NewReader(r)
	m := &Message{}
	inHeader := true
	var body strings.Builder
	for {
		line, err := br.ReadString('\n')
		if inHeader && line != "" {
			trimmed := strings.TrimRight(line, "\r\n")
			switch {
			case trimmed == "":
				inHeader = false
			case line[0] == ' ' || line[0] == '\t':
				// Continuation of the previous field.
				if len(m.Header) == 0 {
					return nil, fmt.Errorf("mail: continuation line before any header field: %q", trimmed)
				}
				m.Header[len(m.Header)-1].Value += "\n" + strings.TrimLeft(trimmed, " \t")
			default:
				name, value, ok := strings.Cut(trimmed, ":")
				if !ok {
					return nil, fmt.Errorf("mail: malformed header line: %q", trimmed)
				}
				m.Header.Add(strings.TrimSpace(name), strings.TrimSpace(value))
			}
		} else if line != "" {
			body.WriteString(line)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	m.Body = body.String()
	return m, nil
}

// ParseString parses a message from a string.
func ParseString(s string) (*Message, error) {
	return Parse(strings.NewReader(s))
}
