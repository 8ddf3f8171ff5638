package tokenize

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/mail"
	"repro/internal/stats"
	"repro/internal/textgen"
)

// strs copies a stream's distinct tokens into a []string (nil when
// there are none).
func strs(ts *TokenStream) []string {
	var out []string
	for i := 0; i < ts.Len(); i++ {
		out = append(out, string(ts.At(i)))
	}
	return out
}

// streamEqualsLegacy fails unless Stream(m) matches the legacy []string
// walk token for token: same distinct tokens in the same
// first-appearance order, occurrence counts matching the full stream,
// Total equal to the full stream length, and the digest equal to the
// legacy digest of the full stream.
func streamEqualsLegacy(t *testing.T, tok *Tokenizer, m *mail.Message) {
	t.Helper()
	full := tok.legacyTokens(m)
	ts := tok.Stream(m)

	if ts.Total() != len(full) {
		t.Fatalf("Total = %d, legacy stream has %d tokens", ts.Total(), len(full))
	}
	wantOrder := make([]string, 0, len(full))
	wantCount := make(map[string]int, len(full))
	for _, w := range full {
		if wantCount[w] == 0 {
			wantOrder = append(wantOrder, w)
		}
		wantCount[w]++
	}
	if ts.Len() != len(wantOrder) {
		t.Fatalf("Len = %d, want %d distinct (%v vs %v)", ts.Len(), len(wantOrder), strs(ts), wantOrder)
	}
	for i := 0; i < ts.Len(); i++ {
		got := string(ts.At(i))
		if got != wantOrder[i] {
			t.Fatalf("token %d = %q, want %q", i, got, wantOrder[i])
		}
		if ts.Count(i) != wantCount[got] {
			t.Fatalf("count(%q) = %d, want %d", got, ts.Count(i), wantCount[got])
		}
	}
	if want := legacyDigest(full); ts.Digest() != want {
		t.Fatalf("Digest = %x, legacy digest %x", ts.Digest(), want)
	}
	// The []string bridge must build the identical stream, digest
	// included — it is the conformance anchor between the two walks.
	if bridge := StreamFromTokens(full); bridge.Digest() != ts.Digest() {
		t.Fatalf("StreamFromTokens digest %x != Stream digest %x", bridge.Digest(), ts.Digest())
	}
}

func streamTestMessage() *mail.Message {
	m := &mail.Message{Body: "FREE money now!!! visit http://WIN.example.com/prize?x=1 or mail " +
		"prizes@big.example.org today today today " + strings.Repeat("verylongword", 5) + " end\n" +
		"héllo wörld   nbsp 日本語のメール です " + string([]byte{0xff, 0xfe, 'a', 'b', 'c'})}
	m.Header.Add("Subject", "YOU have WON a Prize prize")
	m.Header.Add("From", "Lucky Winner <winner@spam.example.net>")
	m.Header.Add("To", "victim@corp.example.com")
	m.Header.Add("Cc", "other list")
	m.Header.Add("X-Mailer", "Bulk Blaster 2000")
	m.Header.Add("Content-Type", "text/plain; charset=UTF-8")
	m.Header.Add("Received", "from relay.spam.net ([10.20.30.40]) by mx.corp.example.com;")
	m.Header.Add("Subject", "second subject line")
	return m
}

func TestStreamMatchesTokenize(t *testing.T) {
	m := streamTestMessage()
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"default", DefaultOptions()},
		{"received", func() Options { o := DefaultOptions(); o.MineReceived = true; return o }()},
		{"noheaders", func() Options { o := DefaultOptions(); o.Headers = false; return o }()},
		{"nourl", func() Options { o := DefaultOptions(); o.URLTokens = false; return o }()},
		{"noskip", func() Options { o := DefaultOptions(); o.SkipTokens = false; return o }()},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			streamEqualsLegacy(t, New(cfg.opts), m)
		})
	}
}

func TestStreamEmptyMessage(t *testing.T) {
	ts := Default().Stream(&mail.Message{})
	if ts.Len() != 0 || ts.Total() != 0 {
		t.Fatalf("empty message produced %d/%d tokens", ts.Len(), ts.Total())
	}
	streamEqualsLegacy(t, Default(), &mail.Message{})
}

func TestStreamDigestDistinguishesPayloads(t *testing.T) {
	tok := Default()
	a := tok.Stream(&mail.Message{Body: "alpha beta gamma"})
	b := tok.Stream(&mail.Message{Body: "alpha beta delta"})
	if a.Digest() == b.Digest() {
		t.Fatal("different payloads share a digest")
	}
	// Two distinct *mail.Message values with equal content digest
	// equally — that is the property admission memoization keys on.
	c := tok.Stream(&mail.Message{Body: "alpha beta gamma"})
	if a.Digest() != c.Digest() {
		t.Fatal("equal payloads digest differently")
	}
	// Multiplicity is part of the identity.
	d := tok.Stream(&mail.Message{Body: "alpha beta gamma gamma"})
	if a.Digest() == d.Digest() {
		t.Fatal("digest ignores multiplicity")
	}
}

func TestStreamScratchReuseIsClean(t *testing.T) {
	// Streams must stay valid and independent after the scratch that
	// built them is reused by later messages.
	tok := Default()
	a := tok.Stream(&mail.Message{Body: "first message body words"})
	aWant := strs(a)
	for i := 0; i < 64; i++ {
		_ = tok.Stream(&mail.Message{Body: strings.Repeat("other content entirely ", i+1)})
	}
	for i, w := range aWant {
		if string(a.At(i)) != w {
			t.Fatalf("stream token %d corrupted by scratch reuse: %q != %q", i, a.At(i), w)
		}
	}
}

// TestLargeMessageLeavesScratchFast: one huge message must not slow
// every later message tokenized on the same pooled scratch. A 720 KB
// body of 80,000 distinct tokens (under the serving body cap) once
// left a dedupe map that large, and clearing it cost its whole
// capacity on every later reset: about ten times the walk of an
// ordinary message. The scratch is driven directly, not through the
// pool, so the check is deterministic under -race.
func TestLargeMessageLeavesScratchFast(t *testing.T) {
	tok := Default()
	var big strings.Builder
	for i := 0; i < 80000; i++ {
		fmt.Fprintf(&big, "tok%05d ", i)
	}
	large := &mail.Message{Body: big.String()}
	m := streamTestMessage()
	walk := func(sc *scratch, m *mail.Message) {
		tok.walkMessage(sc, m)
		sc.finish()
		sc.reset()
	}
	fresh, used := newScratch(), newScratch()
	walk(used, large)
	// The cheapest of several alternating trials on each scratch, so a
	// scheduling hiccup in one trial cannot decide the comparison.
	cost := func(sc *scratch) time.Duration {
		start := time.Now()
		for i := 0; i < 100; i++ {
			walk(sc, m)
		}
		return time.Since(start)
	}
	freshCost, usedCost := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for trial := 0; trial < 7; trial++ {
		freshCost = min(freshCost, cost(fresh))
		usedCost = min(usedCost, cost(used))
	}
	if usedCost > 3*freshCost {
		t.Fatalf("100 ordinary messages cost %v on a scratch that once held a %d-byte message, %v on a fresh one",
			usedCost, len(large.Body), freshCost)
	}
}

// TestCraftedTokensDoNotCrowdTable: a sender who can compute the
// dedupe table's slot hash offline can pick words whose home slots all
// fall in the table's first few slots, whatever its size. They then
// form one probe run, the i-th insert probes about i slots, and a
// message of n such words costs about n²/2 string compares. The
// crafted words here do that to an unseeded FNV-1a slot hash with
// Fibonacci mixing: the top ten bits of the mixed hash are zero, about
// one eight-letter word in 1,024. Stream on them must cost about what
// it costs on as many other eight-letter words.
func TestCraftedTokensDoNotCrowdTable(t *testing.T) {
	const n = 4000
	// word spells x in base 26, eight lowercase letters.
	word := func(x int) string {
		var w [8]byte
		for j := range w {
			w[j] = 'a' + byte(x%26)
			x /= 26
		}
		return string(w[:])
	}
	var crafted, plain strings.Builder
	for x, found := 0, 0; found < n; x++ {
		w := word(x)
		h := uint64(fnvOffset)
		for j := 0; j < len(w); j++ {
			h = (h ^ uint64(w[j])) * fnvPrime
		}
		if (h*0x9e3779b97f4a7c15)>>54 == 0 {
			crafted.WriteString(w + " ")
			found++
		}
	}
	r := stats.NewRNG(1)
	for i := 0; i < n; i++ {
		plain.WriteString(word(r.Intn(1<<31)) + " ")
	}
	tok := Default()
	cost := func(body string) time.Duration {
		m := &mail.Message{Body: body}
		best := time.Duration(math.MaxInt64)
		for trial := 0; trial < 5; trial++ {
			start := time.Now()
			if ts := tok.Stream(m); ts.Len() != n {
				t.Fatalf("%d distinct tokens, want %d", ts.Len(), n)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	plainCost := cost(plain.String())
	craftedCost := cost(crafted.String())
	if craftedCost > 3*plainCost {
		t.Fatalf("Stream costs %v on %d crafted words, %v on %d other words of the same length",
			craftedCost, n, plainCost, n)
	}
}

func TestSymbolsInternLookup(t *testing.T) {
	s := NewSymbols()
	a := s.Intern("alpha")
	b := s.Intern("beta")
	if a == b {
		t.Fatal("distinct tokens share an ID")
	}
	if again := s.Intern("alpha"); again != a {
		t.Fatalf("re-intern changed ID: %d vs %d", again, a)
	}
	if id, ok := s.Lookup("beta"); !ok || id != b {
		t.Fatalf("Lookup(beta) = %d, %v", id, ok)
	}
	if _, ok := s.Lookup("gamma"); ok {
		t.Fatal("Lookup of unknown token succeeded")
	}
	if s.Len() != 2 || s.Name(a) != "alpha" || s.Name(b) != "beta" {
		t.Fatalf("table state: len=%d", s.Len())
	}
}

func TestSymbolsCloneCopyOnWrite(t *testing.T) {
	s := NewSymbols()
	a := s.Intern("alpha")
	c := s.Clone()
	// Clone sees the existing assignment.
	if id, ok := c.Lookup("alpha"); !ok || id != a {
		t.Fatal("clone lost an interned token")
	}
	// Divergent interning stays private to each side.
	cb := c.Intern("beta")
	if _, ok := s.Lookup("beta"); ok {
		t.Fatal("clone's intern leaked into the original")
	}
	sg := s.Intern("gamma")
	if _, ok := c.Lookup("gamma"); ok {
		t.Fatal("original's intern leaked into the clone")
	}
	if cb != sg {
		// Both assigned ID 1 independently — the tables are dense and
		// disjoint after the write fork.
		t.Fatalf("post-clone IDs diverged unexpectedly: %d vs %d", cb, sg)
	}
}

func TestStreamFromTokensCounts(t *testing.T) {
	ts := StreamFromTokens([]string{"a", "b", "a", "c", "a", "b"})
	if ts.Len() != 3 || ts.Total() != 6 {
		t.Fatalf("len=%d total=%d", ts.Len(), ts.Total())
	}
	want := map[string]int{"a": 3, "b": 2, "c": 1}
	for i := 0; i < ts.Len(); i++ {
		if ts.Count(i) != want[string(ts.At(i))] {
			t.Fatalf("count(%q) = %d", ts.At(i), ts.Count(i))
		}
	}
}

// FuzzTokenStream holds the pooled streaming walk to exact
// equivalence with the legacy []string walk on arbitrary header fields
// and body bytes. header is a raw header block, one "Name: value" field
// per line, where a line starting with a space or tab continues the
// previous value (as mail.Parse unfolds it), so the fuzzer mutates
// field names as well as values. flags toggles the options the walk
// branches on (see fuzzOptions).
func FuzzTokenStream(f *testing.F) {
	f.Add("Subject: WIN a prize\nFrom: bob <bob@spam.example.net>\nReceived: from bob <bob@spam.example.net> ([WIN a prize])",
		"free MONEY http://x.example.com/a?b=c now now", uint8(2))
	f.Add("", "", uint8(2))
	f.Add("Subject: héllo\nFrom: no-at-sign\nReceived: from no-at-sign ([héllo])",
		"日本語   "+strings.Repeat("w", 45)+" a@b.c longemailaddress@example.com", uint8(2))
	f.Add("Subject: x\nFrom: a@b\nReceived: from a@b ([x])", string([]byte{0xff, 0x80, 'a', ' ', 0xc3}), uint8(2))
	// Every field the walk reads, in mixed case, one of them folded.
	f.Add("SUBJECT: Re: Offer\nfrom: Ann <ann@a.example.com>\nTo: bob@b.example.org\nCC: carol\n"+
		"sender: <s@relay.example.net>\nReply-TO: r@r.example\nx-mailer: Mutt/1.5\n"+
		"content-TYPE: text/html; charset=utf-8\nreceived: from mx.example.com ([10.1.2.3])\n\tby relay.example.net",
		"body words https://www.example.com/x", uint8(2))
	u, err := textgen.NewUniverse(textgen.SmallUniverseConfig())
	if err != nil {
		f.Fatal(err)
	}
	g, err := textgen.New(u, textgen.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	r := stats.NewRNG(1)
	for flags := uint8(0); flags < 4; flags++ {
		for _, m := range []*mail.Message{g.HamMessage(r), g.SpamMessage(r)} {
			var block strings.Builder
			for i, fl := range m.Header {
				if i > 0 {
					block.WriteByte('\n')
				}
				block.WriteString(fl.Name + ": " + strings.ReplaceAll(fl.Value, "\n", "\n\t"))
			}
			f.Add(block.String(), m.Body, flags)
		}
	}
	f.Fuzz(func(t *testing.T, header, body string, flags uint8) {
		var h mail.Header
		for _, line := range strings.Split(header, "\n") {
			if len(h) > 0 && line != "" && (line[0] == ' ' || line[0] == '\t') {
				h[len(h)-1].Value += "\n" + line[1:]
				continue
			}
			name, value, _ := strings.Cut(line, ":")
			h.Add(name, value)
		}
		streamEqualsLegacy(t, New(fuzzOptions(flags)), &mail.Message{Header: h, Body: body})
	})
}

// fuzzOptions maps a fuzzed byte onto the tokenizer options: bit 0
// drops headers, bit 1 mines Received, bit 2 drops URL tokens, bit 3
// drops skip tokens.
func fuzzOptions(flags uint8) Options {
	opts := DefaultOptions()
	opts.Headers = flags&1 == 0
	opts.MineReceived = flags&2 != 0
	opts.URLTokens = flags&4 == 0
	opts.SkipTokens = flags&8 == 0
	return opts
}
