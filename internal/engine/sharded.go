package engine

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"repro/internal/corpus"
	"repro/internal/mail"
	"repro/internal/obs"
)

// ShardKey routes a message to a shard: the Sharded engine sends m to
// shard key(m) % NumShards. A key must be a pure function of the
// message so that delivery, training, and retraining all agree on
// where a user's mail lives.
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

// ShardedConfig tunes a Sharded engine.
type ShardedConfig struct {
	// Name labels the engine in stats (defaults to "sharded"); shard i
	// is labeled "Name/i", and the shard of a one-shard fleet is
	// labeled "Name".
	Name string
	// Workers is the per-shard batch parallelism. <= 0 selects
	// GOMAXPROCS divided across the shards (at least 1 each), so a
	// default-configured Sharded engine does not oversubscribe the
	// machine N-fold.
	Workers int
	// LearnBuffer is the capacity of the routing LearnStream channel
	// and of each shard's stream (<= 0 selects the Engine default).
	LearnBuffer int
	// Key routes messages to shards (nil selects RecipientKey).
	Key ShardKey
	// Obs, when non-nil, registers every shard's instruments with
	// per-shard labels (engine="Name/i", or "Name" for one shard), so
	// an operator can see one shard's latency or admission mix diverge
	// — the per-user blast-radius isolation made observable.
	Obs *obs.Registry
	// Trace, when non-nil, receives each shard's sampled decision
	// events, stamped with the shard index (-1 for one shard).
	Trace *obs.Tracer
}

// Sharded is one logical filter partitioned across N independent
// Engine shards: every message is routed to the shard its ShardKey
// selects, so each shard serves — and is retrained on — a fixed slice
// of the user population. The serving surface mirrors Engine
// (Classify, ClassifyBatch, ScoreBatch, Retrain/RetrainIncremental/
// Swap, LearnStream, Stats), with batches grouped by shard, fanned
// out concurrently, and restitched into input order.
//
// Sharding buys two things the single Engine cannot offer: scoring
// throughput that scales across shards with no shared snapshot
// pointer contention, and per-user blast-radius isolation — poison
// trained into one shard degrades only the mailboxes routed there,
// which is exactly the containment the per-shard Stats breakdown
// makes observable.
//
// A single engine is a one-shard fleet: with N == 1 the routing key
// is never called, the shard carries the fleet's bare name as its
// stats label and store key, and its trace events carry shard -1, so
// a one-shard Sharded serves, counts, traces and persists exactly as
// the Engine it wraps.
type Sharded struct {
	name   string
	key    ShardKey
	shards []*Engine
}

// NewSharded partitions the serving layer across one Engine per
// classifier in clfs. Each classifier becomes shard i's generation-1
// snapshot; callers that want identically trained shards pass clones
// (or the same read-only classifier) and diverge them later through
// per-shard retraining.
func NewSharded(clfs []Classifier, cfg ShardedConfig) *Sharded {
	return newShardedAt(clfs, nil, cfg)
}

// newShardedAt builds the Sharded with each shard serving at its own
// starting generation (nil gens selects 1 everywhere) — the shared
// constructor of NewSharded and the per-shard resume path, where each
// restored shard keeps its persisted generation.
func newShardedAt(clfs []Classifier, gens []uint64, cfg ShardedConfig) *Sharded {
	if len(clfs) == 0 {
		panic("engine: NewSharded with no classifiers")
	}
	name := cfg.Name
	if name == "" {
		name = "sharded"
	}
	key := cfg.Key
	if key == nil {
		key = RecipientKey
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) / len(clfs)
		if workers < 1 {
			workers = 1
		}
	}
	s := &Sharded{name: name, key: key, shards: make([]*Engine, len(clfs))}
	for i, clf := range clfs {
		gen := uint64(1)
		if gens != nil {
			gen = gens[i]
		}
		label, shard := name, int32(-1)
		if len(clfs) > 1 {
			label, shard = fmt.Sprintf("%s/%d", name, i), int32(i)
		}
		s.shards[i] = NewAt(clf, gen, Config{
			Name:        label,
			Workers:     workers,
			LearnBuffer: cfg.LearnBuffer,
			Obs:         cfg.Obs,
			Trace:       cfg.Trace,
		})
		s.shards[i].shard = shard
	}
	return s
}

// Name returns the sharded engine's stats label.
func (s *Sharded) Name() string { return s.name }

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard returns shard i's Engine for per-shard operations the
// combined surface does not cover (Snapshot, Generation, Classifier).
func (s *Sharded) Shard(i int) *Engine { return s.shards[i] }

// ShardFor returns the shard index m routes to. A one-shard fleet
// answers 0 without calling the routing key.
func (s *Sharded) ShardFor(m *mail.Message) int {
	if len(s.shards) == 1 {
		return 0
	}
	return int(s.key(m) % uint64(len(s.shards)))
}

// Partition splits a corpus into per-shard sub-corpora with the
// engine's own routing key: out[i] holds exactly the examples a
// delivery stream would route to shard i, in corpus order. Retraining
// shard i on out[i] therefore trains it on precisely the mail it
// serves.
func (s *Sharded) Partition(c *corpus.Corpus) []*corpus.Corpus {
	return PartitionByKey(c, len(s.shards), s.key)
}

// PartitionByKey is Partition for callers that have not built the
// Sharded engine yet (bootstrapping per-shard training corpora before
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

// Classify routes one message to its shard and scores it there — the
// at-delivery verdict, identical to what a dedicated per-user engine
// would have returned.
func (s *Sharded) Classify(m *mail.Message) Result {
	return s.shards[s.ShardFor(m)].Classify(m)
}

// ClassifyBatch groups msgs by shard, fans the per-shard sub-batches
// out concurrently (each against its shard's single snapshot), and
// restitches the results into input order: out[i] is the verdict of
// msgs[i]. A shard retrain publishing mid-batch never mixes
// generations within that shard's slice of the batch, because each
// shard scores its whole sub-batch against the one snapshot its
// Engine loaded. It returns the first sub-batch error (and no
// results) if the context is cancelled.
func (s *Sharded) ClassifyBatch(ctx context.Context, msgs []*mail.Message) ([]Result, error) {
	if len(s.shards) == 1 {
		return s.shards[0].ClassifyBatch(ctx, msgs)
	}
	sub, idx := s.group(msgs)
	out := make([]Result, len(msgs))
	err := s.forEachShard(func(sh int) error {
		if len(sub[sh]) == 0 {
			return nil
		}
		res, err := s.shards[sh].ClassifyBatch(ctx, sub[sh])
		if err != nil {
			return err
		}
		for j, i := range idx[sh] {
			out[i] = res[j]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScoreBatch is ClassifyBatch without thresholding: out[i] is the
// spam score of msgs[i].
func (s *Sharded) ScoreBatch(ctx context.Context, msgs []*mail.Message) ([]float64, error) {
	if len(s.shards) == 1 {
		return s.shards[0].ScoreBatch(ctx, msgs)
	}
	sub, idx := s.group(msgs)
	out := make([]float64, len(msgs))
	err := s.forEachShard(func(sh int) error {
		if len(sub[sh]) == 0 {
			return nil
		}
		scores, err := s.shards[sh].ScoreBatch(ctx, sub[sh])
		if err != nil {
			return err
		}
		for j, i := range idx[sh] {
			out[i] = scores[j]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// group splits msgs by destination shard, remembering each message's
// original batch index for restitching.
func (s *Sharded) group(msgs []*mail.Message) (sub [][]*mail.Message, idx [][]int) {
	sub = make([][]*mail.Message, len(s.shards))
	idx = make([][]int, len(s.shards))
	for i, m := range msgs {
		sh := s.ShardFor(m)
		sub[sh] = append(sub[sh], m)
		idx[sh] = append(idx[sh], i)
	}
	return sub, idx
}

// forEachShard runs fn for every shard concurrently and returns the
// first error — the one spawn-per-shard scaffold the batch fan-out
// and the all-shards retrains share. A one-shard fleet runs fn inline.
func (s *Sharded) forEachShard(fn func(sh int) error) error {
	if len(s.shards) == 1 {
		return fn(0)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(s.shards))
	for sh := range s.shards {
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

// Retrain partitions train by the routing key and rebuilds every
// shard from its own slice, concurrently; shard i is retrained on
// exactly the examples it would have served. It returns the new
// generation of every shard. Shards that finished before a
// cancellation keep their new snapshots; the returned error is the
// first ctx error observed. Retrain one shard alone through Shard(i).
func (s *Sharded) Retrain(ctx context.Context, factory Factory, train *corpus.Corpus) ([]uint64, error) {
	parts := s.Partition(train)
	gens := make([]uint64, len(s.shards))
	err := s.forEachShard(func(sh int) error {
		var err error
		gens[sh], err = s.shards[sh].Retrain(ctx, factory, parts[sh])
		return err
	})
	return gens, err
}

// RetrainIncremental partitions delta by the routing key and extends
// every shard's snapshot with its own slice, concurrently. Every shard
// must serve a Cloner classifier.
func (s *Sharded) RetrainIncremental(ctx context.Context, delta *corpus.Corpus) ([]uint64, error) {
	parts := s.Partition(delta)
	gens := make([]uint64, len(s.shards))
	err := s.forEachShard(func(sh int) error {
		var err error
		gens[sh], err = s.shards[sh].RetrainIncremental(ctx, parts[sh])
		return err
	})
	return gens, err
}

// Swap publishes clfs[i] as shard i's new snapshot, one shard at a
// time. len(clfs) must equal NumShards. Unlike a single Engine swap,
// the replacement is not atomic across shards: a batch in flight can
// see old snapshots on some shards and new ones on others — but never
// a mix within one shard's slice.
func (s *Sharded) Swap(clfs ...Classifier) []uint64 {
	if len(clfs) != len(s.shards) {
		panic(fmt.Sprintf("engine: Swap with %d classifiers for %d shards", len(clfs), len(s.shards)))
	}
	gens := make([]uint64, len(s.shards))
	for i, clf := range clfs {
		gens[i] = s.shards[i].Swap(clf)
	}
	return gens
}

// LearnStream starts a bulk-training stream that routes each example
// to its shard's own LearnStream by the routing key: send examples on
// the returned channel, close it, then call wait for the total count
// learned across all shards (and the first error). The contract
// matches Engine.LearnStream: cancellation discards the remainder but
// keeps draining until wait observes it, so a blocked producer is
// always released, and producers must stop sending before calling
// wait. A one-shard fleet hands out its shard's own stream.
func (s *Sharded) LearnStream(ctx context.Context) (chan<- Labeled, func() (int, error)) {
	if len(s.shards) == 1 {
		return s.shards[0].LearnStream(ctx)
	}
	ins := make([]chan<- Labeled, len(s.shards))
	waits := make([]func() (int, error), len(s.shards))
	for i, e := range s.shards {
		ins[i], waits[i] = e.LearnStream(ctx)
	}
	buf := s.shards[0].learnBuf
	in := make(chan Labeled, buf)
	stop := make(chan struct{})
	routerDone := make(chan struct{})
	var stopOnce sync.Once
	// cancelled records that the router shut down because of the
	// context, not a producer close. It is written before routerDone
	// closes and read after wait receives it, so the handoff is
	// ordered. Without it the cancellation error can be swallowed: the
	// router's exit closes the shard streams, and a shard consumer
	// that observes its closed channel before it happens to poll
	// ctx.Done() finishes with a nil error like any clean shutdown.
	var cancelled bool
	go func() {
		defer close(routerDone)
		// The shard streams close (and their consumers finish) exactly
		// when the router is done forwarding.
		defer func() {
			for i := range ins {
				close(ins[i])
			}
		}()
		for {
			select {
			case <-ctx.Done():
				// Mirror Engine.LearnStream's drain: keep the routing
				// channel flowing so a producer blocked on a full buffer
				// is released, stopping once wait observes cancellation.
				cancelled = true
				go drainUntil(in, stop)
				return
			case ex, ok := <-in:
				if !ok {
					return
				}
				// On cancellation a shard consumer drains its own stream
				// until its wait observes it — and wait below does not
				// collect the shard waits (which end those drains) until
				// the router has exited, so this forward is always
				// released.
				ins[s.ShardFor(ex.Msg)] <- ex
			}
		}
	}()
	wait := func() (int, error) {
		// The router must finish (closing the shard streams) before the
		// shard waits shut the per-shard drains down, or a forward
		// in flight at cancellation could block forever against a shard
		// whose drain already did its final sweep.
		<-routerDone
		total := 0
		var first error
		for i := range waits {
			n, err := waits[i]()
			total += n
			if err != nil && first == nil {
				first = err
			}
		}
		if first == nil && cancelled {
			first = ctx.Err()
		}
		stopOnce.Do(func() { close(stop) })
		return total, first
	}
	return in, wait
}

// ShardedStats aggregates the shard counters into one combined view
// plus the per-shard breakdown an operator needs to see a single
// user's filter degrading — the observability counterpart of the
// blast-radius isolation sharding provides.
type ShardedStats struct {
	// Stats sums every shard's counters under the fleet's name. Its
	// Generation is the oldest serving generation across shards (the
	// laggard a rolling retrain has not reached yet) and its Retrains
	// is the total number of snapshot publishes across all shards. For
	// one shard it is that shard's own Stats.
	Stats
	// Shards is each shard's own counters, indexed by shard.
	Shards []Stats
	// Generations is each shard's serving generation, indexed by
	// shard — shards retrained independently drift apart here.
	Generations []uint64
}

// Stats returns a point-in-time aggregate of every shard's counters.
func (s *Sharded) Stats() ShardedStats {
	st := ShardedStats{
		Stats:       Stats{Name: s.name},
		Shards:      make([]Stats, len(s.shards)),
		Generations: make([]uint64, len(s.shards)),
	}
	for i, e := range s.shards {
		sh := e.Stats()
		st.Shards[i] = sh
		st.Generations[i] = sh.Generation
		if i == 0 || sh.Generation < st.Generation {
			st.Generation = sh.Generation
		}
		st.Retrains += sh.Retrains
		st.Classified += sh.Classified
		st.Scored += sh.Scored
		st.Learned += sh.Learned
		st.Batches += sh.Batches
		for l := range sh.ByLabel {
			st.ByLabel[l] += sh.ByLabel[l]
		}
		st.Publishes += sh.Publishes
		st.BatchLatency += sh.BatchLatency
		st.ClassifyLatency += sh.ClassifyLatency
		st.LearnLatency += sh.LearnLatency
		// Admission counters sum from the same per-shard snapshot the
		// breakdown reports, so sum(Shards[i].Admission) ==
		// Admission holds even against concurrent vetting — the
		// invariant class the Scored/Classified fix established.
		st.Admission.add(sh.Admission)
	}
	return st
}
