package tokenize

// The pooled streaming walk behind Stream and DistinctTokenCount. It
// applies the SpamBayes rules of the package doc over byte slices
// lowered into reusable scratch buffers, emitting token pieces
// straight into the scratch arena — no intermediate slices, no
// per-token string concatenation. TestStreamMatchesTokenize and
// FuzzTokenStream hold it token for token to a plain []string
// implementation of the same rules, kept in legacy_test.go.

import (
	"bytes"
	"unicode"
	"unicode/utf8"

	"repro/internal/mail"
)

// Header-field prefixes, precomputed so the walk never rebuilds them.
var (
	addressPrefixes []string
	wordPrefixes    []string
)

func init() {
	for _, f := range addressFields {
		addressPrefixes = append(addressPrefixes, lowerASCII(f)+":")
	}
	for _, f := range wordFields {
		wordPrefixes = append(wordPrefixes, lowerASCII(f)+":")
	}
}

func lowerASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// Stream tokenizes the message exactly once into a TokenStream —
// every distinct token in first-appearance order with occurrence
// counts — using pooled per-message scratch. This is the serving-path
// entry point: the engine tokenizes at the batch boundary and the
// same stream flows through scoring, admission vetting and learning.
func (t *Tokenizer) Stream(m *mail.Message) *TokenStream {
	sc := getScratch()
	t.walkMessage(sc, m)
	ts := sc.finish()
	putScratch(sc)
	return ts
}

// DistinctTokenCount returns Stream(m).Len() without materializing
// any token slice: the walk runs through the pooled scratch and only
// the dedupe map's size survives. It exists so consumers outside the
// tokenization layer (the admission flood gate, notably) can ask for
// the one fact they need instead of calling a tokenization entry
// point themselves.
func (t *Tokenizer) DistinctTokenCount(m *mail.Message) int {
	sc := getScratch()
	t.walkMessage(sc, m)
	_, _ = sc.dedupe()
	n := len(sc.seen)
	putScratch(sc)
	return n
}

// walkMessage emits the message's full token stream (headers first,
// duplicates included) into the scratch.
func (t *Tokenizer) walkMessage(sc *scratch, m *mail.Message) {
	if t.opts.Headers {
		for i := range m.Header {
			if mail.EqualFieldName(m.Header[i].Name, "Subject") {
				t.walkWords(sc, "subject:", m.Header[i].Value, true)
			}
		}
		for fi, field := range addressFields {
			prefix := addressPrefixes[fi]
			for i := range m.Header {
				if mail.EqualFieldName(m.Header[i].Name, field) {
					sc.walkAddress(prefix, m.Header[i].Value)
				}
			}
		}
		for fi, field := range wordFields {
			prefix := wordPrefixes[fi]
			for i := range m.Header {
				if mail.EqualFieldName(m.Header[i].Name, field) {
					t.walkWords(sc, prefix, m.Header[i].Value, false)
				}
			}
		}
		if t.opts.MineReceived {
			for i := range m.Header {
				if mail.EqualFieldName(m.Header[i].Name, "Received") {
					sc.walkReceived(m.Header[i].Value)
				}
			}
		}
	}
	t.walkText(sc, m.Body)
}

// lowerInto appends the lowercase of s to dst, byte-for-byte equal to
// strings.ToLower(s) (including U+FFFD replacement of invalid UTF-8).
func lowerInto(dst []byte, s string) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
		i += size
	}
	return dst
}

// isSpaceByte matches strings.Fields' ASCII space set.
func isSpaceByte(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}

// eachField iterates the whitespace-separated fields of b (the
// unicode.IsSpace split strings.Fields performs), calling fn for each.
func eachField(b []byte, fn func(w []byte)) {
	i := 0
	for i < len(b) {
		// Skip leading space.
		for i < len(b) {
			if c := b[i]; c < utf8.RuneSelf {
				if !isSpaceByte(c) {
					break
				}
				i++
				continue
			}
			r, size := utf8.DecodeRune(b[i:])
			if !unicode.IsSpace(r) {
				break
			}
			i += size
		}
		start := i
		for i < len(b) {
			if c := b[i]; c < utf8.RuneSelf {
				if isSpaceByte(c) {
					break
				}
				i++
				continue
			}
			r, size := utf8.DecodeRune(b[i:])
			if unicode.IsSpace(r) {
				break
			}
			i += size
		}
		if i > start {
			fn(b[start:i])
		}
	}
}

// walkText lowercases body text into the scratch and applies the word
// rules (URL splitting included).
func (t *Tokenizer) walkText(sc *scratch, text string) {
	if text == "" {
		return
	}
	sc.lower = lowerInto(sc.lower[:0], text)
	eachField(sc.lower, func(w []byte) {
		if t.opts.URLTokens {
			if rest, proto, ok := splitURLBytes(w); ok {
				sc.str("proto:")
				sc.str(proto)
				sc.end()
				sc.walkURL(rest)
				return
			}
		}
		t.walkWord(sc, "", w)
	})
}

// walkWords lowercases a header value and emits each field, through
// the word rules when rules is set (Subject) or verbatim with the
// prefix when not (the word-list fields).
func (t *Tokenizer) walkWords(sc *scratch, prefix, v string, rules bool) {
	sc.lower = lowerInto(sc.lower[:0], v)
	eachField(sc.lower, func(w []byte) {
		if rules {
			t.walkWord(sc, prefix, w)
			return
		}
		sc.str(prefix)
		sc.bs(w)
		sc.end()
	})
}

// walkWord applies the SpamBayes word rules to one lowered word:
// words shorter than MinWordLen are dropped, words up to MaxWordLen
// kept, and longer ones become "email name:"/"email addr:" tokens when
// they hold one '@' and a '.' (under 40 bytes), else, with SkipTokens,
// a "skip:" token recording the first byte and a length bucket.
func (t *Tokenizer) walkWord(sc *scratch, prefix string, w []byte) {
	n := len(w)
	switch {
	case n < t.opts.MinWordLen:
	case n <= t.opts.MaxWordLen:
		sc.str(prefix)
		sc.bs(w)
		sc.end()
	case n < 40 && countByte(w, '@') == 1 && bytes.IndexByte(w, '.') >= 0:
		at := bytes.IndexByte(w, '@')
		local, domain := w[:at], w[at+1:]
		sc.str(prefix)
		sc.str("email name:")
		sc.bs(local)
		sc.end()
		eachDotPiece(domain, func(piece []byte) {
			sc.str(prefix)
			sc.str("email addr:")
			sc.bs(piece)
			sc.end()
		})
	case t.opts.SkipTokens:
		bucket := n / 10 * 10
		sc.str(prefix)
		sc.str("skip:")
		sc.bs(w[:1])
		sc.str(" ")
		sc.num(bucket)
		sc.end()
	}
}

// splitURLBytes reports whether w is a URL-ish word and returns the
// remainder after the scheme plus the scheme name.
func splitURLBytes(w []byte) (rest []byte, proto string, ok bool) {
	switch {
	case hasPrefix(w, "http://"):
		return w[len("http://"):], "http", true
	case hasPrefix(w, "https://"):
		return w[len("https://"):], "https", true
	case hasPrefix(w, "www."):
		return w, "http", true
	default:
		return nil, "", false
	}
}

// walkURL emits "url:" host-piece tokens.
func (sc *scratch) walkURL(rest []byte) {
	host := rest
	if i := bytes.IndexAny(host, "/?#"); i >= 0 {
		host = host[:i]
	}
	if i := bytes.IndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	eachDotPiece(host, func(piece []byte) {
		sc.str("url:")
		sc.bs(piece)
		sc.end()
	})
}

// walkAddress tokenizes an address header value: lowercase, trim,
// extract the <...> bracket address if present, then name/domain
// tokens.
func (sc *scratch) walkAddress(prefix, v string) {
	sc.lower = lowerInto(sc.lower[:0], v)
	b := bytes.TrimSpace(sc.lower)
	if len(b) == 0 {
		return
	}
	addr := b
	if i := bytes.IndexByte(b, '<'); i >= 0 {
		if j := bytes.IndexByte(b[i:], '>'); j > 0 {
			addr = b[i+1 : i+j]
		}
	}
	at := bytes.IndexByte(addr, '@')
	if at < 0 {
		sc.str(prefix)
		sc.str("name:")
		sc.bs(addr)
		sc.end()
		return
	}
	sc.str(prefix)
	sc.str("name:")
	sc.bs(addr[:at])
	sc.end()
	eachDotPiece(addr[at+1:], func(piece []byte) {
		sc.str(prefix)
		sc.str("addr:")
		sc.bs(piece)
		sc.end()
	})
}

// walkReceived mines hostnames and IPv4 octet prefixes out of a
// Received line.
func (sc *scratch) walkReceived(v string) {
	// The received walk needs the lowered value to survive the field
	// iteration, and no other walk runs concurrently on this scratch,
	// so reuse lower like the other walks do.
	sc.lower = lowerInto(sc.lower[:0], v)
	eachField(sc.lower, func(w []byte) {
		w = bytes.Trim(w, "()[];,")
		switch {
		case len(w) == 0:
		case isIPv4ishBytes(w):
			// Leading octet prefixes generalize across one network.
			for i := 0; i < len(w); i++ {
				if w[i] == '.' {
					sc.str("received:ip:")
					sc.bs(w[:i])
					sc.end()
				}
			}
			sc.str("received:ip:")
			sc.bs(w)
			sc.end()
		case bytes.IndexByte(w, '.') >= 0:
			eachDotPiece(w, func(piece []byte) {
				if len(piece) >= 2 {
					sc.str("received:")
					sc.bs(piece)
					sc.end()
				}
			})
		}
	})
}

// eachDotPiece calls fn for every non-empty '.'-separated piece.
func eachDotPiece(b []byte, fn func(piece []byte)) {
	start := 0
	for i := 0; i <= len(b); i++ {
		if i == len(b) || b[i] == '.' {
			if i > start {
				fn(b[start:i])
			}
			start = i + 1
		}
	}
}

func countByte(b []byte, c byte) int {
	n := 0
	for _, x := range b {
		if x == c {
			n++
		}
	}
	return n
}

func hasPrefix(b []byte, p string) bool {
	if len(b) < len(p) {
		return false
	}
	for i := 0; i < len(p); i++ {
		if b[i] != p[i] {
			return false
		}
	}
	return true
}

// isIPv4ishBytes reports whether w looks like a dotted-decimal IPv4
// address.
func isIPv4ishBytes(w []byte) bool {
	parts := 1
	plen := 0
	for _, c := range w {
		switch {
		case c == '.':
			if plen == 0 {
				return false
			}
			parts++
			plen = 0
		case c < '0' || c > '9':
			return false
		default:
			plen++
			if plen > 3 {
				return false
			}
		}
	}
	return parts == 4 && plen > 0
}
