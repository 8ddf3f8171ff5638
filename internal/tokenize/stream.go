package tokenize

// The tokenize-once representation. A freshly allocated []string per
// message and per pipeline stage cost the serving path ~56KB and 46
// allocs per message, and batch scoring stayed flat from 1→8 workers
// because every stage re-tokenized. Stream walks the message once
// through pooled per-message scratch (a sync.Pool arena for the token
// bytes, plus a word buffer and an open-addressed dedupe table) and
// produces a TokenStream: each distinct token exactly once in
// first-appearance order, with its occurrence count, all token text
// sliced zero-copy out of one backing string. Engine, admission and
// the learn path hand the same *TokenStream* around instead of
// re-tokenizing.

import (
	"hash/maphash"
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

// scratch is the reusable per-message tokenization state: the word
// buffer, the token-byte arena, the token boundaries, and the dedupe
// table. One walk appends every emitted token (duplicates included)
// into arena with boundaries in offs; finish converts the arena to a
// single string, deduplicates through the table, and copies out
// exact-size token/count slices.
type scratch struct {
	lower  []byte
	arena  []byte
	offs   []int
	table  []int32 // open-addressed dedupe table: 1 + index into toks, 0 empty
	toks   []Token
	counts []int32
}

// Pooled scratches whose arena or word buffer exceeds this many bytes,
// or whose dedupe table exceeds this many slots, are dropped rather
// than recycled, so one pathological message cannot pin huge buffers
// forever.
const maxPooledArena = 1 << 20

// minTableSlots is the dedupe table a new scratch starts with.
const minTableSlots = 512

func newScratch() *scratch {
	return &scratch{offs: []int{0}, table: make([]int32, minTableSlots)}
}

var scratchPool = sync.Pool{New: func() any { return newScratch() }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(sc *scratch) {
	if cap(sc.arena) > maxPooledArena || cap(sc.lower) > maxPooledArena || len(sc.table) > maxPooledArena {
		return
	}
	sc.reset()
	scratchPool.Put(sc)
}

// reset readies the scratch for the next message. It clears only the
// table slots this message's tokens could occupy, so its cost follows
// this message, not the largest one the scratch has seen.
func (sc *scratch) reset() {
	clear(sc.table[:min(len(sc.table), tableSlots(len(sc.offs)-1))])
	clear(sc.toks) // drop Token views so old arenas can be collected
	sc.toks = sc.toks[:0]
	sc.counts = sc.counts[:0]
	sc.arena = sc.arena[:0]
	sc.offs = append(sc.offs[:0], 0)
	sc.lower = sc.lower[:0]
}

// tableSlots is the dedupe table size for a message of n tokens: the
// smallest power of two, at least minTableSlots, holding 2n, so the
// table is at most half full.
func tableSlots(n int) int {
	size := minTableSlots
	for size < 2*n {
		size <<= 1
	}
	return size
}

// str appends a token piece.
func (sc *scratch) str(s string) { sc.arena = append(sc.arena, s...) }

// bs appends a token piece from the word buffer.
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

// tableSeed seeds the dedupe table's slot hash. It is drawn afresh in
// every process, so a sender cannot compute offline which words share
// a home slot and fill a message with words that crowd one probe run.
var tableSeed = maphash.MakeSeed()

// dedupe converts the arena to its backing string and fills toks and
// counts plus the full-stream digest (length-prefixed FNV-1a across
// the whole stream). Each token's slot in the table comes from a
// seeded maphash of its bytes. Table entries index toks, whose strings
// are substrings of the arena string, so deduplicating allocates
// nothing beyond growing the table.
func (sc *scratch) dedupe() (digest uint64) {
	s := string(sc.arena)
	size := tableSlots(len(sc.offs) - 1)
	if len(sc.table) < size {
		sc.table = make([]int32, size)
	}
	table := sc.table[:size]
	mask := uint64(size - 1)
	toks, counts := sc.toks, sc.counts
	h := uint64(fnvOffset)
	start := 0
	for _, end := range sc.offs[1:] {
		tok := s[start:end]
		start = end
		// Length-prefix the digest so token boundaries are unambiguous.
		h = (h ^ uint64(len(tok))) * fnvPrime
		for j := 0; j < len(tok); j++ {
			h = (h ^ uint64(tok[j])) * fnvPrime
		}
		for slot := maphash.String(tableSeed, tok) & mask; ; slot = (slot + 1) & mask {
			k := table[slot]
			if k == 0 {
				table[slot] = int32(len(toks) + 1)
				toks = append(toks, Token(tok))
				counts = append(counts, 1)
				break
			}
			if toks[k-1] == Token(tok) {
				counts[k-1]++
				break
			}
		}
	}
	sc.toks, sc.counts = toks, counts
	return h
}

// finish deduplicates the walked tokens and copies them into an
// immutable TokenStream (three exact-size allocations plus the
// backing string).
func (sc *scratch) finish() *TokenStream {
	digest := sc.dedupe()
	return &TokenStream{
		tokens: append(make([]Token, 0, len(sc.toks)), sc.toks...),
		counts: append(make([]int32, 0, len(sc.counts)), sc.counts...),
		total:  len(sc.offs) - 1,
		digest: digest,
	}
}
