package tokenize

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mail"
)

func msgWithBody(body string) *mail.Message {
	return &mail.Message{Body: body}
}

// tokens returns the distinct tokens Stream makes of m, in
// first-appearance order (nil when there are none).
func tokens(tok *Tokenizer, m *mail.Message) []string {
	return strs(tok.Stream(m))
}

// bodyTokens is tokens of a header-less message with body text.
func bodyTokens(tok *Tokenizer, text string) []string {
	return tokens(tok, msgWithBody(text))
}

func TestBodyBasicWords(t *testing.T) {
	got := bodyTokens(Default(), "The quick brown fox")
	want := []string{"the", "quick", "brown", "fox"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestBodyLowercased(t *testing.T) {
	got := bodyTokens(Default(), "FREE Money NOW")
	want := []string{"free", "money", "now"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestBodyShortWordsDropped(t *testing.T) {
	got := bodyTokens(Default(), "a an to see it")
	want := []string{"see"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestBodyPunctuationKept(t *testing.T) {
	// SpamBayes splits on whitespace only; trailing punctuation stays.
	got := bodyTokens(Default(), "hello, world.")
	want := []string{"hello,", "world."}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestBodyLengthBoundaries(t *testing.T) {
	tok := Default()
	cases := map[string][]string{
		"ab":                    nil,              // below min
		"abc":                   {"abc"},          // at min
		"abcdefghijkl":          {"abcdefghijkl"}, // at max (12)
		"abcdefghijklm":         {"skip:a 10"},    // 13 chars
		strings.Repeat("z", 25): {"skip:z 20"},    // bucket 20
		strings.Repeat("q", 40): {"skip:q 40"},    // bucket 40
	}
	for in, want := range cases {
		got := bodyTokens(tok, in)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("bodyTokens(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestBodyEmbeddedEmailAddress(t *testing.T) {
	got := bodyTokens(Default(), "contact bob.smith@mail.enron.com today")
	want := []string{
		"contact",
		"email name:bob.smith",
		"email addr:mail", "email addr:enron", "email addr:com",
		"today",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestBodyURLTokens(t *testing.T) {
	got := bodyTokens(Default(), "visit http://shop.pills.biz/buy?x=1 now")
	want := []string{"visit", "proto:http", "url:shop", "url:pills", "url:biz", "now"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	got = bodyTokens(Default(), "https://secure.bank.com")
	want = []string{"proto:https", "url:secure", "url:bank", "url:com"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	got = bodyTokens(Default(), "www.example.org:8080/path")
	want = []string{"proto:http", "url:www", "url:example", "url:org"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestURLTokensDisabled(t *testing.T) {
	opts := DefaultOptions()
	opts.URLTokens = false
	got := bodyTokens(New(opts), "http://a.b.c/d")
	// Falls through to the long-word rule.
	if len(got) != 1 || !strings.HasPrefix(got[0], "skip:") {
		t.Errorf("got %v", got)
	}
}

func TestSkipTokensDisabled(t *testing.T) {
	opts := DefaultOptions()
	opts.SkipTokens = false
	got := bodyTokens(New(opts), "short "+strings.Repeat("x", 30))
	want := []string{"short"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestSubjectTokens(t *testing.T) {
	m := msgWithBody("body words here\n")
	m.Header.Add("Subject", "Quarterly Budget Review")
	got := tokens(Default(), m)
	for _, want := range []string{"subject:quarterly", "subject:budget", "subject:review"} {
		if !contains(got, want) {
			t.Errorf("missing %q in %v", want, got)
		}
	}
	// Header tokens come before body tokens.
	if got[0] != "subject:quarterly" {
		t.Errorf("first token = %q", got[0])
	}
}

func TestAddressTokens(t *testing.T) {
	m := msgWithBody("")
	m.Header.Add("From", "Alice Liddell <alice@mail.enron.com>")
	m.Header.Add("To", "bob@other.org")
	got := tokens(Default(), m)
	for _, want := range []string{
		"from:name:alice", "from:addr:mail", "from:addr:enron", "from:addr:com",
		"to:name:bob", "to:addr:other", "to:addr:org",
	} {
		if !contains(got, want) {
			t.Errorf("missing %q in %v", want, got)
		}
	}
}

func TestAddressWithoutAt(t *testing.T) {
	m := msgWithBody("")
	m.Header.Add("From", "undisclosed-recipients")
	got := tokens(Default(), m)
	if !contains(got, "from:name:undisclosed-recipients") {
		t.Errorf("got %v", got)
	}
}

func TestWordFieldTokens(t *testing.T) {
	m := msgWithBody("")
	m.Header.Add("X-Mailer", "Mutt/1.5.9i")
	m.Header.Add("Content-Type", "text/html; charset=\"us-ascii\"")
	got := tokens(Default(), m)
	for _, want := range []string{"x-mailer:mutt/1.5.9i", "content-type:text/html;"} {
		if !contains(got, want) {
			t.Errorf("missing %q in %v", want, got)
		}
	}
}

func TestHeadersDisabled(t *testing.T) {
	opts := DefaultOptions()
	opts.Headers = false
	m := msgWithBody("body\n")
	m.Header.Add("Subject", "ignored")
	got := tokens(New(opts), m)
	want := []string{"body"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestEmptyHeaderNoHeaderTokens(t *testing.T) {
	// Dictionary attack emails have empty headers: only body tokens.
	got := tokens(Default(), msgWithBody("alpha beta\n"))
	want := []string{"alpha", "beta"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestReceivedMining(t *testing.T) {
	opts := DefaultOptions()
	opts.MineReceived = true
	m := msgWithBody("")
	m.Header.Add("Received", "from relay.spam.biz ([10.20.30.40]) by mx.corp.com")
	got := tokens(New(opts), m)
	for _, want := range []string{
		"received:relay", "received:spam", "received:biz",
		"received:ip:10", "received:ip:10.20", "received:ip:10.20.30", "received:ip:10.20.30.40",
		"received:mx", "received:corp", "received:com",
	} {
		if !contains(got, want) {
			t.Errorf("missing %q in %v", want, got)
		}
	}
	// Default options must not mine Received.
	got = tokens(Default(), m)
	if len(got) != 0 {
		t.Errorf("default tokenizer mined Received: %v", got)
	}
}

func TestTokenSetDeduplicates(t *testing.T) {
	got := tokens(Default(), msgWithBody("spam spam spam eggs spam\n"))
	want := []string{"spam", "eggs"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestTokenSetFirstSeenOrder(t *testing.T) {
	m := msgWithBody("zebra apple zebra mango apple\n")
	got := tokens(Default(), m)
	want := []string{"zebra", "apple", "mango"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestTokenSetEmptyMessage(t *testing.T) {
	if got := tokens(Default(), &mail.Message{}); len(got) != 0 {
		t.Errorf("empty message produced %v", got)
	}
}

func TestIsIPv4ish(t *testing.T) {
	yes := []string{"1.2.3.4", "255.255.255.255", "10.0.0.1"}
	no := []string{"1.2.3", "1.2.3.4.5", "a.b.c.d", "1..2.3", "1234.1.1.1", "example.com"}
	for _, s := range yes {
		if !isIPv4ishBytes([]byte(s)) {
			t.Errorf("isIPv4ishBytes(%q) = false", s)
		}
	}
	for _, s := range no {
		if isIPv4ishBytes([]byte(s)) {
			t.Errorf("isIPv4ishBytes(%q) = true", s)
		}
	}
}

// TestItoa pins the walker's decimal writer, which spells the skip
// tokens' length buckets.
func TestItoa(t *testing.T) {
	for _, c := range []struct {
		n    int
		want string
	}{{0, "0"}, {7, "7"}, {10, "10"}, {120, "120"}, {98560, "98560"}} {
		sc := getScratch()
		sc.num(c.n)
		if got := string(sc.arena); got != c.want {
			t.Errorf("num(%d) = %q, want %q", c.n, got, c.want)
		}
		putScratch(sc)
	}
}

func TestTokenizeDeterministic(t *testing.T) {
	m := msgWithBody("some words repeated words and a http://x.y.z link\n")
	m.Header.Add("Subject", "Hello There")
	m.Header.Add("From", "p@q.com")
	a, b := Default().Stream(m), Default().Stream(m)
	if !reflect.DeepEqual(strs(a), strs(b)) || a.Digest() != b.Digest() || a.Total() != b.Total() {
		t.Error("Stream is not deterministic")
	}
}

// Property: every kept verbatim body token obeys the length bounds and
// is lowercase; the distinct tokens are duplicate-free and their
// counts sum to the full stream length.
func TestQuickTokenInvariants(t *testing.T) {
	tok := Default()
	f := func(body string) bool {
		ts := tok.Stream(msgWithBody(body))
		seen := map[Token]bool{}
		total := 0
		for i := 0; i < ts.Len(); i++ {
			s := ts.At(i)
			if seen[s] || ts.Count(i) < 1 {
				return false // duplicate or phantom distinct token
			}
			seen[s] = true
			total += ts.Count(i)
			if !strings.ContainsAny(string(s), ":") { // plain body word
				if len(s) < 3 || len(s) > 12 {
					return false
				}
				if string(s) != strings.ToLower(string(s)) {
					return false
				}
			}
		}
		return total == ts.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func BenchmarkTokenizeBody(b *testing.B) {
	body := strings.Repeat("the quick brown fox jumps over lazy dogs near riverbank ", 40)
	m := msgWithBody(body)
	tok := Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tok.Stream(m)
	}
}
