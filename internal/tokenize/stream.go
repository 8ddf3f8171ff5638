package tokenize

// The tokenize-once representation. A freshly allocated []string per
// message and per pipeline stage cost the serving path ~56KB and 46
// allocs per message, and batch scoring stayed flat from 1→8 workers
// because every stage re-tokenized. Stream walks the
// message once through pooled per-message scratch (a sync.Pool arena
// for the lowered text, the token bytes, and the dedupe map) and
// produces a TokenStream: each distinct token exactly once in
// first-appearance order, with its occurrence count, all token text
// sliced zero-copy out of one backing string. Engine, admission and
// the learn path hand the same *TokenStream* around instead of
// re-tokenizing.

import (
	"sync"
)

// Token is one tokenizer output. It is a distinct named type (not a
// bare string) so the layer boundaries are visible to the type
// checker.
type Token string

// TokenStream is one message tokenized exactly once: every distinct
// token in first-appearance order with its occurrence count, plus a
// digest identifying the full (duplicate-preserving) stream. A
// TokenStream is immutable after construction and safe to share
// across goroutines.
type TokenStream struct {
	tokens []Token
	counts []int32
	total  int
	digest uint64
}

// Len returns the number of distinct tokens.
func (ts *TokenStream) Len() int { return len(ts.tokens) }

// At returns the i-th distinct token (first-appearance order).
func (ts *TokenStream) At(i int) Token { return ts.tokens[i] }

// Count returns how many times the i-th distinct token occurred in
// the full stream.
func (ts *TokenStream) Count(i int) int { return int(ts.counts[i]) }

// Total returns the full stream length, duplicates included.
func (ts *TokenStream) Total() int { return ts.total }

// Tokens returns the distinct tokens in first-appearance order. The
// slice is borrowed from the stream: callers must not modify it.
func (ts *TokenStream) Tokens() []Token { return ts.tokens }

// Digest returns a 64-bit FNV-1a digest of the full token stream
// (length-prefixed token bytes, duplicates included), so equal
// payloads digest equally regardless of the carrying *mail.Message.
// Admission memoization keys on it: two messages that tokenize
// identically are the same training example.
func (ts *TokenStream) Digest() uint64 { return ts.digest }

// StreamFromTokens builds a TokenStream from a full token sequence
// (duplicates preserved), deduplicating exactly like Stream. It turns a
// word list — an attack dictionary, a test's hand-made token set —
// into the stream every classifier trains and scores on.
func StreamFromTokens(stream []string) *TokenStream {
	sc := getScratch()
	for _, t := range stream {
		sc.str(t)
		sc.end()
	}
	ts := sc.finish()
	putScratch(sc)
	return ts
}

// ---- pooled per-message scratch ----

// scratch is the reusable per-message tokenization state: the
// lowercase buffer, the token-byte arena, the token boundaries, and
// the dedupe map. One walk appends every emitted token (duplicates
// included) into arena with boundaries in offs; finish converts the
// arena to a single string, deduplicates through the pooled map, and
// copies out exact-size token/count slices.
type scratch struct {
	lower  []byte
	arena  []byte
	offs   []int
	seen   map[string]int32
	toks   []Token
	counts []int32
}

// Pooled scratches larger than this are dropped rather than recycled,
// so one pathological message cannot pin a huge arena forever.
const maxPooledArena = 1 << 20

var scratchPool = sync.Pool{
	New: func() any {
		return &scratch{seen: make(map[string]int32, 256)}
	},
}

func getScratch() *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.offs = append(sc.offs, 0)
	return sc
}

func putScratch(sc *scratch) {
	if cap(sc.arena) > maxPooledArena || cap(sc.lower) > maxPooledArena {
		return
	}
	clear(sc.seen)
	clear(sc.toks) // drop Token views so old arenas can be collected
	sc.toks = sc.toks[:0]
	sc.counts = sc.counts[:0]
	sc.arena = sc.arena[:0]
	sc.offs = sc.offs[:0]
	sc.lower = sc.lower[:0]
	scratchPool.Put(sc)
}

// str appends a token piece.
func (sc *scratch) str(s string) { sc.arena = append(sc.arena, s...) }

// bs appends a token piece from the lowered buffer.
func (sc *scratch) bs(b []byte) { sc.arena = append(sc.arena, b...) }

// num appends a non-negative integer piece in decimal.
func (sc *scratch) num(n int) {
	if n == 0 {
		sc.arena = append(sc.arena, '0')
		return
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	sc.arena = append(sc.arena, buf[i:]...)
}

// end closes the current token.
func (sc *scratch) end() { sc.offs = append(sc.offs, len(sc.arena)) }

// fnv1a constants (FNV-1a 64-bit).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// dedupe converts the arena to its backing string and fills
// seen/toks/counts plus the full-stream digest. The map keys are
// substrings of the returned string, so inserting them allocates
// nothing beyond occasional bucket growth on a reused map.
func (sc *scratch) dedupe() (s string, digest uint64) {
	s = string(sc.arena)
	h := uint64(fnvOffset)
	n := len(sc.offs) - 1
	for i := 0; i < n; i++ {
		tok := s[sc.offs[i]:sc.offs[i+1]]
		// Length-prefix the hash so token boundaries are unambiguous.
		h = (h ^ uint64(len(tok))) * fnvPrime
		h = fnvString(h, tok)
		if j, ok := sc.seen[tok]; ok {
			sc.counts[j]++
			continue
		}
		sc.seen[tok] = int32(len(sc.toks))
		sc.toks = append(sc.toks, Token(tok))
		sc.counts = append(sc.counts, 1)
	}
	return s, h
}

// finish deduplicates the walked tokens and copies them into an
// immutable TokenStream (three exact-size allocations plus the
// backing string).
func (sc *scratch) finish() *TokenStream {
	_, digest := sc.dedupe()
	ts := &TokenStream{
		tokens: append(make([]Token, 0, len(sc.toks)), sc.toks...),
		counts: append(make([]int32, 0, len(sc.counts)), sc.counts...),
		total:  len(sc.offs) - 1,
		digest: digest,
	}
	return ts
}
