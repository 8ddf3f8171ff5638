package tokenize

// The pooled streaming walk behind Stream. It applies the SpamBayes
// rules of the package doc in one pass over each header value and the
// body: one field walker splits the raw bytes on whitespace and lowers
// each field straight into the scratch arena, so a word kept verbatim
// becomes a token where it lands — no lowered copy of the text, no
// intermediate slices, no per-token string concatenation. TestStreamMatchesTokenize and FuzzTokenStream hold it
// token for token, and digest for digest, to a plain []string
// implementation of the same rules, kept in legacy_test.go.

import (
	"bytes"
	"slices"
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

// walkMessage emits the message's full token stream (headers first,
// duplicates included) into the scratch.
func (t *Tokenizer) walkMessage(sc *scratch, m *mail.Message) {
	if t.opts.Headers {
		for i := range m.Header {
			if mail.EqualFieldName(m.Header[i].Name, "Subject") {
				t.walkFields(sc, subjectField, "subject:", m.Header[i].Value)
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
					t.walkFields(sc, listField, prefix, m.Header[i].Value)
				}
			}
		}
		if t.opts.MineReceived {
			for i := range m.Header {
				if mail.EqualFieldName(m.Header[i].Name, "Received") {
					t.walkFields(sc, receivedField, "", m.Header[i].Value)
				}
			}
		}
	}
	t.walkFields(sc, bodyField, "", m.Body)
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

// lowerByte classifies a byte for the field walk: an ASCII byte that
// is not a space maps to its lowercase, one of strings.Fields' ASCII
// spaces to spaceByte, and every byte from utf8.RuneSelf up to
// multiByte, which sends the walk through the unicode tables.
var lowerByte [256]byte

const (
	spaceByte = utf8.RuneSelf
	multiByte = 0xff
)

func init() {
	for c := range lowerByte {
		switch {
		case c >= utf8.RuneSelf:
			lowerByte[c] = multiByte
		case c == ' ', c == '\t', c == '\n', c == '\v', c == '\f', c == '\r':
			lowerByte[c] = spaceByte
		case 'A' <= c && c <= 'Z':
			lowerByte[c] = byte(c) + 'a' - 'A'
		default:
			lowerByte[c] = byte(c)
		}
	}
}

// skipSpace returns the index of the first non-space rune of s at or
// after i (len(s) if none), splitting as strings.Fields does.
func skipSpace(s string, i int) int {
	for i < len(s) {
		switch lowerByte[s[i]] {
		case spaceByte:
			i++
		case multiByte:
			r, size := utf8.DecodeRuneInString(s[i:])
			if !unicode.IsSpace(r) {
				return i
			}
			i += size
		default:
			return i
		}
	}
	return i
}

// lowerWord appends the lowercase of s from i up to the next space to
// dst and returns the index of that space (len(s) if none). ASCII
// goes through the byte table into room grown for the rest of s; utf8
// and unicode run only from a byte past utf8.RuneSelf.
func lowerWord(dst []byte, s string, i int) ([]byte, int) {
	dst = slices.Grow(dst, len(s)-i)
	buf, n := dst[:cap(dst)], len(dst)
	for i < len(s) {
		c := lowerByte[s[i]]
		if c < utf8.RuneSelf {
			buf[n] = c
			n++
			i++
			continue
		}
		if c == spaceByte {
			break
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(r) {
			break
		}
		i += size
		// A lowered rune can take more bytes than the raw one (Ⱥ grows
		// from two to three, an invalid byte becomes a three-byte
		// U+FFFD), so grow again for the rest of s.
		dst = slices.Grow(utf8.AppendRune(buf[:n], unicode.ToLower(r)), len(s)-i)
		buf, n = dst[:cap(dst)], len(dst)
	}
	return buf[:n], i
}

// fieldKind selects the rules walkFields applies to each field.
type fieldKind uint8

const (
	bodyField     fieldKind = iota // URL rules, then the word rules
	subjectField                   // the word rules, prefixed
	listField                      // every field verbatim, prefixed
	receivedField                  // hostname and IPv4 mining
)

// walkFields is the one field walker behind the body, Subject,
// word-list and Received walks. It lowers and splits v in one pass
// over the raw bytes, consulting the unicode tables only past
// utf8.RuneSelf: splitting the raw text equals splitting its lowercase
// because unicode.ToLower never changes whether a rune is a space, and
// invalid UTF-8 lowers to U+FFFD, as in strings.ToLower. Each field is
// lowered straight into the arena behind the prefix, so a word the
// rules keep verbatim is closed in place; URL, over-long and Received
// fields are copied to the word buffer (sc.lower) and the arena rolled
// back before their tokens are emitted from it.
func (t *Tokenizer) walkFields(sc *scratch, kind fieldKind, prefix, v string) {
	urls := kind == bodyField && t.opts.URLTokens
	minLen, maxLen := t.opts.MinWordLen, t.opts.MaxWordLen
	arena := sc.arena
	for i := 0; ; {
		i = skipSpace(v, i)
		if i == len(v) {
			break
		}
		mark := len(arena)
		if prefix != "" {
			arena = append(arena, prefix...)
		}
		start := len(arena)
		arena, i = lowerWord(arena, v, i)
		w := arena[start:]
		url := false
		if urls && (w[0] == 'h' || w[0] == 'w') {
			_, _, url = splitURLBytes(w)
		}
		switch {
		case kind == listField:
			sc.offs = append(sc.offs, len(arena))
			continue
		case kind == receivedField, url, len(w) > maxLen:
			// Emitted from the word buffer below.
		case len(w) < minLen:
			arena = arena[:mark]
			continue
		default:
			sc.offs = append(sc.offs, len(arena))
			continue
		}
		sc.lower = append(sc.lower[:0], w...)
		sc.arena = arena[:mark]
		switch {
		case kind == receivedField:
			sc.walkReceivedWord(sc.lower)
		case url:
			sc.walkURL(sc.lower)
		default:
			t.walkLongWord(sc, prefix, sc.lower)
		}
		arena = sc.arena
	}
	sc.arena = arena
}

// walkLongWord applies the SpamBayes rules for a lowered word longer
// than MaxWordLen: it becomes "email name:"/"email addr:" tokens when
// it holds one '@' and a '.' (under 40 bytes), else, with SkipTokens,
// a "skip:" token recording the first byte and a length bucket. Words
// shorter than MinWordLen are dropped and the rest kept verbatim
// before it is reached.
func (t *Tokenizer) walkLongWord(sc *scratch, prefix string, w []byte) {
	n := len(w)
	switch {
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

// walkURL emits the "proto:" token of a URL-ish word and its "url:"
// host-piece tokens.
func (sc *scratch) walkURL(w []byte) {
	rest, proto, _ := splitURLBytes(w)
	sc.str("proto:")
	sc.str(proto)
	sc.end()
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

// walkReceivedWord mines hostnames and IPv4 octet prefixes out of
// one lowered field of a Received line.
func (sc *scratch) walkReceivedWord(w []byte) {
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
