package mail

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestHeaderGetSetAdd(t *testing.T) {
	var h Header
	if h.Get("Subject") != "" {
		t.Error("Get on empty header should return empty string")
	}
	h.Add("Subject", "hello")
	h.Add("Received", "hop1")
	h.Add("Received", "hop2")
	if got := h.Get("subject"); got != "hello" {
		t.Errorf("case-insensitive Get = %q", got)
	}
	if got := h.GetAll("RECEIVED"); len(got) != 2 || got[0] != "hop1" || got[1] != "hop2" {
		t.Errorf("GetAll = %v", got)
	}
	if !h.Has("subject") || h.Has("x-missing") {
		t.Error("Has misbehaved")
	}
	h.Set("Subject", "world")
	if got := h.Get("Subject"); got != "world" {
		t.Errorf("after Set, Get = %q", got)
	}
	if len(h) != 3 {
		t.Errorf("Set should replace, not append: %v", h)
	}
	h.Set("X-New", "v")
	if got := h.Get("X-New"); got != "v" {
		t.Errorf("Set-append failed: %q", got)
	}
}

// Field names are ASCII (RFC 5322), so lookups fold ASCII case only.
// A name that merely Unicode-folds to a known field names a different
// field: "ſubject" spelled with U+017F LATIN SMALL LETTER LONG S, or
// "\u212aeywords" spelled with U+212A KELVIN SIGN.
func TestHeaderNamesFoldASCIIOnly(t *testing.T) {
	var h Header
	h.Add("\u017fubject", "long s")
	h.Add("\u017fender", "long s")
	h.Add("\u212aeywords", "kelvin")
	if got := h.Get("Subject"); got != "" {
		t.Errorf(`Get("Subject") = %q, want "" for a field named "ſubject"`, got)
	}
	if h.Has("Sender") || len(h.GetAll("SENDER")) != 0 {
		t.Error(`"ſender" matched Sender`)
	}
	if h.Has("keywords") {
		t.Error(`"\u212aeywords" matched Keywords`)
	}
	h.Set("Subject", "ascii")
	if len(h) != 4 || h[0].Value != "long s" {
		t.Errorf(`Set("Subject") replaced the "ſubject" field: %v`, h)
	}
	if m := (&Message{Header: h}); m.Subject() != "ascii" {
		t.Errorf("Subject() = %q", m.Subject())
	}
}

func TestEqualFieldName(t *testing.T) {
	for _, c := range []struct {
		a, b string
		want bool
	}{
		{"Subject", "subject", true},
		{"CONTENT-TYPE", "Content-Type", true},
		{"\u017fubject", "Subject", false},
		{"\u212a", "k", false},
		{"Subject", "Subjec", false},
		{"", "", true},
		{"a@", "A`", false},
	} {
		if got := EqualFieldName(c.a, c.b); got != c.want {
			t.Errorf("EqualFieldName(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestHeaderClone(t *testing.T) {
	var h Header
	h.Add("A", "1")
	c := h.Clone()
	c.Set("A", "2")
	if h.Get("A") != "1" {
		t.Error("Clone is not deep")
	}
	if Header(nil).Clone() != nil {
		t.Error("Clone(nil) should be nil")
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{Body: "line one\nline two\n"}
	m.Header.Add("From", "alice@example.com")
	m.Header.Add("To", "bob@example.org")
	m.Header.Add("Subject", "quarterly report")
	s := m.String()
	got, err := ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	if got.From() != "alice@example.com" || got.Subject() != "quarterly report" {
		t.Errorf("parsed header = %v", got.Header)
	}
	if got.Body != m.Body {
		t.Errorf("body = %q, want %q", got.Body, m.Body)
	}
	// Serialization is a fixed point.
	if got.String() != s {
		t.Errorf("re-serialization differs:\n%q\n%q", got.String(), s)
	}
}

func TestMessageEmptyHeader(t *testing.T) {
	m := &Message{Body: "just a body\n"}
	got, err := ParseString(m.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Header) != 0 {
		t.Errorf("header = %v, want empty", got.Header)
	}
	if got.Body != "just a body\n" {
		t.Errorf("body = %q", got.Body)
	}
}

func TestMessageEmptyBody(t *testing.T) {
	m := &Message{}
	m.Header.Add("Subject", "nothing")
	got, err := ParseString(m.String())
	if err != nil {
		t.Fatal(err)
	}
	if got.Body != "" {
		t.Errorf("body = %q, want empty", got.Body)
	}
	if got.Subject() != "nothing" {
		t.Errorf("subject = %q", got.Subject())
	}
}

func TestMessageCompletelyEmpty(t *testing.T) {
	m := &Message{}
	got, err := ParseString(m.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Header) != 0 || got.Body != "" {
		t.Errorf("round-trip of empty message = %+v", got)
	}
}

func TestParseFoldedHeader(t *testing.T) {
	raw := "Subject: a very\n\tlong subject\nFrom: x@y.com\n\nbody\n"
	m, err := ParseString(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Subject(); got != "a very\nlong subject" {
		t.Errorf("folded subject = %q", got)
	}
	// Folding must survive re-serialization.
	m2, err := ParseString(m.String())
	if err != nil {
		t.Fatal(err)
	}
	if m2.Subject() != m.Subject() {
		t.Errorf("folded subject did not round-trip: %q", m2.Subject())
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ParseString("\tcontinuation first\n\nbody\n"); err == nil {
		t.Error("continuation before any field should fail")
	}
	if _, err := ParseString("not a header line\n\nbody\n"); err == nil {
		t.Error("colon-less header line should fail")
	}
}

func TestParseHeaderOnly(t *testing.T) {
	m, err := ParseString("Subject: s\nFrom: f@g.h")
	if err != nil {
		t.Fatal(err)
	}
	if m.Subject() != "s" || m.Body != "" {
		t.Errorf("header-only parse = %+v", m)
	}
}

func TestClone(t *testing.T) {
	m := &Message{Body: "b\n"}
	m.Header.Add("A", "1")
	c := m.Clone()
	c.Header.Set("A", "2")
	c.Body = "changed\n"
	if m.Header.Get("A") != "1" || m.Body != "b\n" {
		t.Error("Clone is not deep")
	}
}

func TestSynthesizeHeaderDeterministic(t *testing.T) {
	mk := func() Header {
		rng := statsRNG(42)
		return SynthesizeHeader(rng, HeaderProfile{
			From: "a@b.com", To: "c@d.org", Subject: "hi", Hops: 3, Spammy: true,
		})
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("field %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSynthesizeHeaderStructure(t *testing.T) {
	rng := statsRNG(7)
	h := SynthesizeHeader(rng, HeaderProfile{
		From: "alice@corp.com", To: "bob@other.net", Subject: "meeting", Hops: 2,
	})
	if got := len(h.GetAll("Received")); got != 2 {
		t.Errorf("Received hops = %d, want 2", got)
	}
	for _, name := range []string{"Message-Id", "Date", "From", "To", "Subject", "Content-Type"} {
		if !h.Has(name) {
			t.Errorf("missing %s field", name)
		}
	}
	if h.Get("From") != "alice@corp.com" || h.Get("Subject") != "meeting" {
		t.Error("profile fields not propagated")
	}
	if !strings.Contains(h.Get("Message-Id"), "@corp.com>") {
		t.Errorf("Message-Id domain = %q", h.Get("Message-Id"))
	}
	if !strings.Contains(h.Get("Content-Type"), "text/plain") {
		t.Errorf("ham Content-Type = %q", h.Get("Content-Type"))
	}
}

func TestSynthesizeHeaderSpammy(t *testing.T) {
	rng := statsRNG(9)
	h := SynthesizeHeader(rng, HeaderProfile{
		From: "x@spam.biz", To: "y@victim.com", Subject: "buy now", Hops: 1, Spammy: true,
	})
	if !strings.Contains(h.Get("Content-Type"), "text/html") {
		t.Errorf("spam Content-Type = %q", h.Get("Content-Type"))
	}
}

func TestSynthesizeHeaderMinHops(t *testing.T) {
	rng := statsRNG(11)
	h := SynthesizeHeader(rng, HeaderProfile{From: "a@b.c", To: "d@e.f"})
	if got := len(h.GetAll("Received")); got != 1 {
		t.Errorf("default hops = %d, want 1", got)
	}
}

func TestSynthAddress(t *testing.T) {
	rng := statsRNG(13)
	addr := SynthAddress(rng, "carol")
	if !strings.HasPrefix(addr, "carol@") || !strings.Contains(addr, ".") {
		t.Errorf("SynthAddress = %q", addr)
	}
}

func TestSynthesizedHeaderParses(t *testing.T) {
	// A message with a synthesized header must survive a round trip.
	rng := statsRNG(17)
	m := &Message{
		Header: SynthesizeHeader(rng, HeaderProfile{
			From: "a@b.com", To: "c@d.net", Subject: "status update", Hops: 4,
		}),
		Body: "see attachment\n",
	}
	got, err := ParseString(m.String())
	if err != nil {
		t.Fatal(err)
	}
	if got.Subject() != "status update" || len(got.GetAllReceived()) != 4 {
		t.Errorf("round-trip lost fields: %+v", got.Header)
	}
}

// GetAllReceived is a tiny test helper on Message.
func (m *Message) GetAllReceived() []string { return m.Header.GetAll("Received") }

// Property: any header built from printable tokens round-trips.
func TestQuickHeaderRoundTrip(t *testing.T) {
	sanitize := func(s string) string {
		s = strings.Map(func(r rune) rune {
			if r < 32 || r > 126 || r == ':' {
				return -1
			}
			return r
		}, s)
		return strings.TrimSpace(s)
	}
	f := func(name, value, body string) bool {
		name = sanitize(name)
		if name == "" {
			name = "X-Test"
		}
		value = sanitize(value)
		m := &Message{Body: "payload\n"}
		m.Header.Add(name, value)
		m.Body = strings.ReplaceAll(body, "\r", "") // CR is out of scope
		got, err := ParseString(m.String())
		if err != nil {
			return false
		}
		return got.Header.Get(name) == value
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
