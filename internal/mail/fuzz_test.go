package mail

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParse: Parse never panics, and whatever it accepts reaches a
// fixed point after one Message.WriteTo → Parse pass — the written form
// re-parses to a message that writes the same bytes. (The first pass
// may normalize: header whitespace is trimmed and a body gains its
// final newline.)
func FuzzParse(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add([]byte(m.String()))
	}
	for _, s := range []string{
		"",
		"\n",
		"Subject: folded\n\tsecond line\n continued\r\n\r\nbody without newline",
		"Only-Header: yes",
		": empty name\n\nbody\n",
		" continuation first\n",
		"no colon here\n",
		"A:\n\t\n\t \nB:  spaced  \n\n\n\nbody after blank lines\r\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		once := m.String()
		back, err := ParseString(once)
		if err != nil {
			t.Fatalf("written form does not parse: %v\n%q", err, once)
		}
		if twice := back.String(); twice != once {
			t.Fatalf("WriteTo → Parse is not a fixed point:\nonce  %q\ntwice %q", once, twice)
		}
	})
}

// FuzzMboxReader: MboxReader never panics, and what it reads survives
// the MboxWriter round trip — writing the messages and reading them
// back returns the same number of messages and, written again, the
// same archive bytes.
func FuzzMboxReader(f *testing.F) {
	var archive strings.Builder
	w := NewMboxWriter(&archive)
	for _, m := range sampleMessages() {
		if err := w.WriteMessage(m); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(archive.String()))
	for _, s := range []string{
		"",
		"From a\n",
		"From a\nFrom b\n\nFrom c\nSubject: x\n\n>From quoted\n>>From twice\nFrom d\n",
		"\n\nFrom x Thu Jan  1 00:00:00 1970\r\nSubject: crlf\r\n\r\nbody\r\n",
		"junk before the first envelope\nFrom a\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs, err := NewMboxReader(bytes.NewReader(data)).ReadAll()
		if err != nil {
			return
		}
		write := func(msgs []*Message) string {
			var b strings.Builder
			w := NewMboxWriter(&b)
			for _, m := range msgs {
				if err := w.WriteMessage(m); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}
		once := write(msgs)
		back, err := NewMboxReader(strings.NewReader(once)).ReadAll()
		if err != nil {
			t.Fatalf("written archive does not read: %v\n%q", err, once)
		}
		if len(back) != len(msgs) {
			t.Fatalf("read %d messages, wrote them, read back %d\n%q", len(msgs), len(back), once)
		}
		if twice := write(back); twice != once {
			t.Fatalf("MboxWriter → MboxReader is not a fixed point:\nonce  %q\ntwice %q", once, twice)
		}
	})
}
