package engine

import (
	"strings"
	"sync"

	"repro/internal/corpus"
	"repro/internal/mail"
)

// ShardKey routes a message to a shard: an engine of several shards
// sends m to shard key(m) % NumShards. A key must be a pure function
// of the message so that delivery, training, and retraining all agree
// on where a user's mail lives.
type ShardKey func(*mail.Message) uint64

// RecipientKey is the default ShardKey: an FNV-1a hash of the
// message's canonicalized To address. All of one recipient's mail
// lands on one shard, which is what makes per-user filter state — and
// the paper's §4.3 focused poisoning of a single user's filter — a
// meaningful deployment to simulate.
func RecipientKey(m *mail.Message) uint64 {
	return AddressKey(m.Header.Get("To"))
}

// AddressKey hashes one email address the way RecipientKey does:
// the display-name form "Name <user@host>" is reduced to the address
// inside the brackets, surrounding whitespace is dropped, and the
// result is lowercased before hashing, so routing never splits a
// mailbox across shards over spelling differences.
func AddressKey(addr string) uint64 {
	if i := strings.IndexByte(addr, '<'); i >= 0 {
		if j := strings.IndexByte(addr[i:], '>'); j > 0 {
			addr = addr[i+1 : i+j]
		}
	}
	addr = strings.ToLower(strings.TrimSpace(addr))
	// FNV-1a, inlined to keep the hot routing path allocation-free.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= prime64
	}
	return h
}

// ShardFor returns the shard index m routes to. A one-shard engine
// answers 0 without calling the routing key.
func (e *Engine) ShardFor(m *mail.Message) int {
	if len(e.shards) == 1 {
		return 0
	}
	return int(e.key(m) % uint64(len(e.shards)))
}

// Partition splits a corpus into per-shard sub-corpora with the
// engine's own routing key: out[i] holds exactly the examples a
// delivery stream would route to shard i, in corpus order. Retraining
// shard i on out[i] therefore trains it on precisely the mail it
// serves.
func (e *Engine) Partition(c *corpus.Corpus) []*corpus.Corpus {
	return PartitionByKey(c, len(e.shards), e.key)
}

// PartitionByKey is Partition for callers that have not built the
// engine yet (bootstrapping per-shard training corpora before
// constructing the shards). A nil key selects RecipientKey; with one
// shard the key is never called.
func PartitionByKey(c *corpus.Corpus, n int, key ShardKey) []*corpus.Corpus {
	if n < 1 {
		panic("engine: PartitionByKey with no shards")
	}
	if key == nil {
		key = RecipientKey
	}
	out := make([]*corpus.Corpus, n)
	for i := range out {
		out[i] = &corpus.Corpus{}
	}
	for _, ex := range c.Examples {
		i := uint64(0)
		if n > 1 {
			i = key(ex.Msg) % uint64(n)
		}
		out[i].Add(ex.Msg, ex.Spam)
	}
	return out
}

// forEachShard runs fn for every shard concurrently and returns the
// first error — the one spawn-per-shard scaffold the batch fan-out,
// the guarded retrains and persistence share. A one-shard engine runs
// fn inline.
func (e *Engine) forEachShard(fn func(sh int) error) error {
	if len(e.shards) == 1 {
		return fn(0)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(e.shards))
	for sh := range e.shards {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			errs[sh] = fn(sh)
		}(sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
