package mail

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
)

// This file implements mboxrd-style archive I/O: messages are
// separated by "From " envelope lines, and body lines beginning with
// one or more '>' characters followed by "From " are quoted with one
// extra '>' on write and unquoted on read, so archives round-trip
// exactly.

// mboxSeparatorPrefix begins every envelope line.
const mboxSeparatorPrefix = "From "

// defaultEnvelope is used when a message carries no usable sender.
const defaultEnvelope = "From MAILER-DAEMON Thu Jan  1 00:00:00 1970"

// MboxWriter writes messages to an mbox archive.
type MboxWriter struct {
	w     *bufio.Writer
	wrote bool
}

// NewMboxWriter returns a writer that appends messages to w.
func NewMboxWriter(w io.Writer) *MboxWriter {
	return &MboxWriter{w: bufio.NewWriter(w)}
}

// WriteMessage appends one message, preceded by an envelope line and
// followed by a blank line, with From-quoting applied to the payload.
func (mw *MboxWriter) WriteMessage(m *Message) error {
	envelope := defaultEnvelope
	if from := m.From(); from != "" {
		envelope = mboxSeparatorPrefix + sanitizeEnvelopeAddr(from) + " Thu Jan  1 00:00:00 1970"
	}
	if mw.wrote {
		if _, err := mw.w.WriteString("\n"); err != nil {
			return err
		}
	}
	if _, err := mw.w.WriteString(envelope + "\n"); err != nil {
		return err
	}
	// The payload always ends in a newline. Lines split at '\n' alone,
	// so a CR before it is payload and is written back as read.
	payload := m.String()
	for payload != "" {
		var line string
		line, payload, _ = strings.Cut(payload, "\n")
		if isQuotedFrom(line) {
			if err := mw.w.WriteByte('>'); err != nil {
				return err
			}
		}
		if _, err := mw.w.WriteString(line); err != nil {
			return err
		}
		if err := mw.w.WriteByte('\n'); err != nil {
			return err
		}
	}
	mw.wrote = true
	return nil
}

// Flush flushes buffered output to the underlying writer.
func (mw *MboxWriter) Flush() error { return mw.w.Flush() }

// isQuotedFrom reports whether line is "From " or ">...>From ", i.e.
// needs an extra level of '>' quoting in mboxrd.
func isQuotedFrom(line string) bool {
	i := 0
	for i < len(line) && line[i] == '>' {
		i++
	}
	return strings.HasPrefix(line[i:], mboxSeparatorPrefix)
}

// sanitizeEnvelopeAddr reduces a From header value to a plausible
// envelope address token (no spaces or angle brackets).
func sanitizeEnvelopeAddr(from string) string {
	if i := strings.IndexByte(from, '<'); i >= 0 {
		if j := strings.IndexByte(from[i:], '>'); j > 0 {
			from = from[i+1 : i+j]
		}
	}
	from = strings.TrimSpace(from)
	// A folded From value holds newlines; cutting at them too keeps
	// the envelope one line, so no header value can inject lines (or a
	// forged envelope) into the archive.
	if k := strings.IndexAny(from, " \t\r\n"); k >= 0 {
		from = from[:k]
	}
	if from == "" {
		return "MAILER-DAEMON"
	}
	return from
}

// MboxReader reads messages back from an mbox archive written by
// MboxWriter (or any mboxrd archive).
type MboxReader struct {
	sc      *bufio.Scanner
	pending string // lookahead line (an envelope), if any
	started bool
	done    bool
}

// NewMboxReader returns a reader over r.
func NewMboxReader(r io.Reader) *MboxReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	sc.Split(scanLF)
	return &MboxReader{sc: sc}
}

// scanLF splits lines at '\n' alone: unlike bufio.ScanLines it keeps a
// CR before the newline, so a payload reads back as MboxWriter wrote it.
func scanLF(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// Next returns the next message in the archive, or io.EOF when the
// archive is exhausted.
func (mr *MboxReader) Next() (*Message, error) {
	if mr.done {
		return nil, io.EOF
	}
	// Find the opening envelope line.
	if !mr.started {
		for {
			if !mr.sc.Scan() {
				mr.done = true
				if err := mr.sc.Err(); err != nil {
					return nil, err
				}
				return nil, io.EOF
			}
			line := mr.sc.Text()
			if strings.HasPrefix(line, mboxSeparatorPrefix) {
				mr.started = true
				break
			}
			if strings.TrimSpace(line) != "" {
				return nil, fmt.Errorf("mail: mbox content before first envelope line: %q", line)
			}
		}
	} else if mr.pending == "" {
		// Previous call consumed everything including trailing EOF.
		mr.done = true
		return nil, io.EOF
	}
	mr.pending = ""

	var payload strings.Builder
	for mr.sc.Scan() {
		line := mr.sc.Text()
		if strings.HasPrefix(line, mboxSeparatorPrefix) {
			mr.pending = line
			// The writer emits one blank separator line between
			// messages ("\r\n" in a CRLF archive); it is not part of
			// the payload.
			return finishMboxMessage(strings.TrimSuffix(strings.TrimSuffix(payload.String(), "\n"), "\r"))
		}
		// Unquote >From lines.
		if len(line) > 0 && line[0] == '>' && isQuotedFrom(line[1:]) {
			line = line[1:]
		}
		payload.WriteString(line)
		payload.WriteByte('\n')
	}
	mr.done = true
	if err := mr.sc.Err(); err != nil {
		return nil, err
	}
	return finishMboxMessage(payload.String())
}

// ReadAll drains the archive and returns every message.
func (mr *MboxReader) ReadAll() ([]*Message, error) {
	var msgs []*Message
	for {
		m, err := mr.Next()
		if err == io.EOF {
			return msgs, nil
		}
		if err != nil {
			return msgs, err
		}
		msgs = append(msgs, m)
	}
}

// finishMboxMessage parses one message's payload: every line read
// with its newline, the separator before the next envelope dropped, so
// a body ending in blank lines keeps them.
func finishMboxMessage(payload string) (*Message, error) {
	m, err := ParseString(payload)
	if err != nil {
		return nil, fmt.Errorf("mail: parsing mbox message: %w", err)
	}
	// The writer stores bodies newline-terminated; a message another
	// writer cut off without its separator is normalized the same way.
	if m.Body != "" && !strings.HasSuffix(m.Body, "\n") {
		m.Body += "\n"
	}
	return m, nil
}
