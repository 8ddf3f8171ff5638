package tokenize

// The []string walk that Stream's pooled walker (walk.go) replaced. It
// is kept here, outside the production API, as the reference
// implementation TestStreamMatchesTokenize and FuzzTokenStream hold
// the walker to: the same rules written the obvious way, over strings
// and the mail.Header lookups.

import (
	"strings"

	"repro/internal/mail"
)

// legacyTokens returns the full token stream of the message, headers
// first, with duplicates preserved.
func (t *Tokenizer) legacyTokens(m *mail.Message) []string {
	var out []string
	out = t.appendHeaderTokens(out, m)
	out = t.appendTextTokens(out, m.Body)
	return out
}

// appendHeaderTokens emits prefixed tokens for the configured header
// fields.
func (t *Tokenizer) appendHeaderTokens(out []string, m *mail.Message) []string {
	if !t.opts.Headers {
		return out
	}
	// Subject: plain word tokenization with a "subject:" prefix.
	for _, subj := range m.Header.GetAll("Subject") {
		for _, w := range strings.Fields(strings.ToLower(subj)) {
			out = t.appendWord(out, "subject:", w)
		}
	}
	for _, field := range addressFields {
		prefix := strings.ToLower(field) + ":"
		for _, v := range m.Header.GetAll(field) {
			out = appendAddressTokens(out, prefix, v)
		}
	}
	for _, field := range wordFields {
		prefix := strings.ToLower(field) + ":"
		for _, v := range m.Header.GetAll(field) {
			for _, w := range strings.Fields(strings.ToLower(v)) {
				out = append(out, prefix+w)
			}
		}
	}
	if t.opts.MineReceived {
		for _, v := range m.Header.GetAll("Received") {
			out = appendReceivedTokens(out, v)
		}
	}
	return out
}

// appendTextTokens lowercases text, splits it on whitespace, and
// applies the word rules.
func (t *Tokenizer) appendTextTokens(out []string, text string) []string {
	if text == "" {
		return out
	}
	for _, w := range strings.Fields(strings.ToLower(text)) {
		if t.opts.URLTokens {
			if rest, proto, ok := splitURL(w); ok {
				out = append(out, "proto:"+proto)
				out = appendURLTokens(out, rest)
				continue
			}
		}
		out = t.appendWord(out, "", w)
	}
	return out
}

// appendWord applies the SpamBayes word rules to a single whitespace-
// delimited word and appends the resulting tokens with prefix.
func (t *Tokenizer) appendWord(out []string, prefix, w string) []string {
	n := len(w)
	switch {
	case n < t.opts.MinWordLen:
		// Too short to be discriminative; dropped (SpamBayes).
		return out
	case n <= t.opts.MaxWordLen:
		return append(out, prefix+w)
	case n < 40 && strings.Count(w, "@") == 1 && strings.Contains(w, "."):
		// An embedded email address.
		local, domain, _ := strings.Cut(w, "@")
		out = append(out, prefix+"email name:"+local)
		for _, piece := range strings.Split(domain, ".") {
			if piece != "" {
				out = append(out, prefix+"email addr:"+piece)
			}
		}
		return out
	case t.opts.SkipTokens:
		// Too long: record roughly how many characters were skipped.
		bucket := n / 10 * 10
		return append(out, prefix+"skip:"+w[:1]+" "+itoa(bucket))
	default:
		return out
	}
}

// splitURL reports whether w is a URL-ish word and returns the
// remainder after the scheme plus the scheme name.
func splitURL(w string) (rest, proto string, ok bool) {
	switch {
	case strings.HasPrefix(w, "http://"):
		return w[len("http://"):], "http", true
	case strings.HasPrefix(w, "https://"):
		return w[len("https://"):], "https", true
	case strings.HasPrefix(w, "www."):
		return w, "http", true
	default:
		return "", "", false
	}
}

// appendURLTokens splits the host part of a URL into "url:" tokens.
func appendURLTokens(out []string, rest string) []string {
	host := rest
	if i := strings.IndexAny(host, "/?#"); i >= 0 {
		host = host[:i]
	}
	if i := strings.IndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	for _, piece := range strings.Split(host, ".") {
		if piece != "" {
			out = append(out, "url:"+piece)
		}
	}
	return out
}

// appendAddressTokens tokenizes an address header value ("Name
// <user@host>" or bare "user@host") into name and domain-piece tokens.
func appendAddressTokens(out []string, prefix, v string) []string {
	v = strings.ToLower(strings.TrimSpace(v))
	if v == "" {
		return out
	}
	addr := v
	if i := strings.IndexByte(v, '<'); i >= 0 {
		if j := strings.IndexByte(v[i:], '>'); j > 0 {
			addr = v[i+1 : i+j]
		}
	}
	local, domain, found := strings.Cut(addr, "@")
	if !found {
		return append(out, prefix+"name:"+addr)
	}
	out = append(out, prefix+"name:"+local)
	for _, piece := range strings.Split(domain, ".") {
		if piece != "" {
			out = append(out, prefix+"addr:"+piece)
		}
	}
	return out
}

// appendReceivedTokens mines hostnames and IPv4 octets out of a
// Received line.
func appendReceivedTokens(out []string, v string) []string {
	for _, w := range strings.Fields(strings.ToLower(v)) {
		w = strings.Trim(w, "()[];,")
		switch {
		case w == "":
		case isIPv4ish(w):
			// Leading octet pairs generalize across hosts in one
			// network, as SpamBayes' received miner does.
			parts := strings.Split(w, ".")
			for i := 1; i <= len(parts); i++ {
				out = append(out, "received:ip:"+strings.Join(parts[:i], "."))
			}
		case strings.Contains(w, "."):
			for _, piece := range strings.Split(w, ".") {
				if len(piece) >= 2 {
					out = append(out, "received:"+piece)
				}
			}
		}
	}
	return out
}

// isIPv4ish reports whether w looks like a dotted-decimal IPv4
// address.
func isIPv4ish(w string) bool {
	parts := strings.Split(w, ".")
	if len(parts) != 4 {
		return false
	}
	for _, p := range parts {
		if len(p) == 0 || len(p) > 3 {
			return false
		}
		for i := 0; i < len(p); i++ {
			if p[i] < '0' || p[i] > '9' {
				return false
			}
		}
	}
	return true
}

// legacyDigest is the stream digest written out independently of the
// walker: 64-bit FNV-1a over the full token list (duplicates
// included), each token's length folded in ahead of its bytes.
// Admission memo keys and saved admission state hold these digests, so
// a walker change that moved one would fail here rather than silently
// invalidate them.
func legacyDigest(full []string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, tok := range full {
		h = (h ^ uint64(len(tok))) * prime
		for i := 0; i < len(tok); i++ {
			h = (h ^ uint64(tok[i])) * prime
		}
	}
	return h
}

// itoa converts a small non-negative int to decimal without pulling in
// strconv allocations on the hot path.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
