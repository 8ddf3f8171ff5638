package engine

// Sharded serving suite: routing fidelity, input-order restitching of
// fanned-out batches, per-shard isolation of publishes, stats
// aggregation, and the -race torn-read property (a publish mid-batch
// must never mix generations in the batch). Run under -race (make
// race).

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/mail"
)

// toMsg builds a message addressed to rcpt whose stub score is v.
func toMsg(rcpt string, v float64) *mail.Message {
	m := scoreMsg(v)
	m.Header.Set("To", rcpt)
	return m
}

// shardedMsgs builds n messages spread across recipients u0..u{k-1}
// with distinct scores i/n.
func shardedMsgs(n, k int) []*mail.Message {
	msgs := make([]*mail.Message, n)
	for i := range msgs {
		msgs[i] = toMsg(fmt.Sprintf("u%d@corp.example", i%k), float64(i)/float64(n))
	}
	return msgs
}

func newStubSharded(n int, cfg Config) *Engine {
	clfs := make([]Classifier, n)
	for i := range clfs {
		clfs[i] = &stubClassifier{}
	}
	return NewSharded(clfs, cfg)
}

// shardClassifier returns shard sh's serving classifier.
func shardClassifier(e *Engine, sh int) Classifier {
	clfs, _ := e.Snapshots()
	return clfs[sh]
}

func TestAddressKeyCanonicalizes(t *testing.T) {
	base := AddressKey("alice@corp.example")
	for _, variant := range []string{
		"Alice@Corp.Example",
		"  alice@corp.example  ",
		"Alice Liddell <alice@corp.example>",
		"\"A. Liddell\" <ALICE@CORP.EXAMPLE>",
	} {
		if got := AddressKey(variant); got != base {
			t.Errorf("AddressKey(%q) = %d, want %d (one mailbox split across shards)", variant, got, base)
		}
	}
	if AddressKey("alice@corp.example") == AddressKey("bob@corp.example") {
		t.Error("distinct addresses hash identically (degenerate key)")
	}
}

func TestShardedRoutesByRecipient(t *testing.T) {
	s := newStubSharded(4, Config{Name: "route"})
	for i := 0; i < 32; i++ {
		m := toMsg(fmt.Sprintf("user%d@corp.example", i), 0.5)
		want := int(RecipientKey(m) % 4)
		if got := s.ShardFor(m); got != want {
			t.Fatalf("ShardFor(user%d) = %d, want %d", i, got, want)
		}
		before := s.Stats().Shards[want].Classified
		s.Classify(m)
		if got := s.Stats().Shards[want].Classified; got != before+1 {
			t.Fatalf("message %d did not land on shard %d", i, want)
		}
	}
	total := uint64(0)
	for _, sh := range s.Stats().Shards {
		total += sh.Classified
	}
	if total != 32 {
		t.Fatalf("shards classified %d messages in total, want 32", total)
	}
}

func TestShardedClassifyBatchOrderPreserved(t *testing.T) {
	s := newStubSharded(3, Config{Workers: 2})
	msgs := shardedMsgs(120, 17)
	out, err := s.ClassifyBatch(context.Background(), msgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out {
		if want := float64(i) / 120; res.Score != want {
			t.Fatalf("out[%d].Score = %v, want %v (restitching broken)", i, res.Score, want)
		}
	}
}

func TestShardedScoreBatch(t *testing.T) {
	s := newStubSharded(2, Config{})
	msgs := shardedMsgs(40, 5)
	out, _, err := s.ScoreBatch(context.Background(), msgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, score := range out {
		if want := float64(i) / 40; score != want {
			t.Fatalf("out[%d] = %v, want %v", i, score, want)
		}
	}
	st := s.Stats()
	if st.Scored != 40 || st.Classified != 0 {
		t.Fatalf("combined scored/classified = %d/%d, want 40/0", st.Scored, st.Classified)
	}
}

func TestShardedBatchCancellation(t *testing.T) {
	clfs := []Classifier{
		&stubClassifier{slow: time.Millisecond},
		&stubClassifier{slow: time.Millisecond},
	}
	s := NewSharded(clfs, Config{Workers: 1})
	msgs := shardedMsgs(10000, 7)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if _, err := s.ClassifyBatch(ctx, msgs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestShardedPartitionMatchesRouting(t *testing.T) {
	s := newStubSharded(3, Config{})
	c := &corpus.Corpus{}
	msgs := shardedMsgs(60, 11)
	for i, m := range msgs {
		c.Add(m, i%2 == 0)
	}
	parts := s.Partition(c)
	if len(parts) != 3 {
		t.Fatalf("%d partitions", len(parts))
	}
	total := 0
	for sh, part := range parts {
		total += part.Len()
		for _, ex := range part.Examples {
			if got := s.ShardFor(ex.Msg); got != sh {
				t.Fatalf("partition %d holds a message routed to shard %d", sh, got)
			}
		}
	}
	if total != c.Len() {
		t.Fatalf("partitions hold %d examples, corpus has %d", total, c.Len())
	}
}

func TestShardedRetrainAllTrainsEachShardOnItsSlice(t *testing.T) {
	clfs := make([]Classifier, 4)
	for i := range clfs {
		clfs[i] = &countingClassifier{}
	}
	s := NewSharded(clfs, Config{})
	train := &corpus.Corpus{}
	msgs := shardedMsgs(100, 13)
	for i, m := range msgs {
		train.Add(m, i%2 == 0)
	}
	gen, err := guard(s).RetrainIncremental(context.Background(), train)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 || s.Generation() != 2 {
		t.Fatalf("retrain published generation %d, engine serves %d, want 2", gen, s.Generation())
	}
	parts := s.Partition(train)
	for sh := range clfs {
		probe := &mail.Message{}
		if got := shardClassifier(s, sh).Score(probe); got != float64(parts[sh].Len()) {
			t.Errorf("shard %d trained on %v examples, want its slice of %d", sh, got, parts[sh].Len())
		}
	}
}

func TestShardedRetrainIncrementalAll(t *testing.T) {
	clfs := make([]Classifier, 2)
	for i := range clfs {
		clfs[i] = &countingClassifier{trained: 5}
	}
	s := NewSharded(clfs, Config{})
	delta := &corpus.Corpus{}
	for i, m := range shardedMsgs(20, 9) {
		delta.Add(m, i%2 == 0)
	}
	if _, err := guard(s).RetrainIncremental(context.Background(), delta); err != nil {
		t.Fatal(err)
	}
	parts := s.Partition(delta)
	for sh := 0; sh < s.NumShards(); sh++ {
		want := float64(5 + parts[sh].Len())
		if got := shardClassifier(s, sh).Score(&mail.Message{}); got != want {
			t.Errorf("shard %d scores %v after incremental, want %v", sh, got, want)
		}
	}
	// The originals were cloned, not mutated.
	for i, clf := range clfs {
		if clf.(*countingClassifier).trained != 5 {
			t.Errorf("shard %d's original snapshot mutated", i)
		}
	}
}

// TestShardedPerShardRetrainLeavesOthersUntouched replaces one shard's
// classifier in a publish that passes the other shard's through: the
// untouched shard keeps serving its very classifier, and the whole
// engine moves to the next generation together.
func TestShardedPerShardRetrainLeavesOthersUntouched(t *testing.T) {
	clfs := []Classifier{&countingClassifier{trained: 1}, &countingClassifier{trained: 1}}
	s := NewSharded(clfs, Config{})
	retrained := &countingClassifier{}
	for _, ex := range trainCorpus(9).Examples {
		retrained.LearnTokenStream(stubTok.Stream(ex.Msg), ex.Spam, 1)
	}
	cur, _ := s.Snapshots()
	if gen := s.Swap(cur[0], retrained); gen != 2 {
		t.Fatalf("publish generation %d, want 2", gen)
	}
	if got := shardClassifier(s, 0); got != clfs[0] {
		t.Fatal("shard 0's classifier was replaced by a shard-1 retrain")
	}
	if got := shardClassifier(s, 1).Score(&mail.Message{}); got != 9 {
		t.Fatalf("shard 1 scores %v, want 9", got)
	}
	if got := shardClassifier(s, 0).Score(&mail.Message{}); got != 1 {
		t.Fatalf("shard 0 snapshot changed: score %v, want 1", got)
	}
	for i, sh := range s.Stats().Shards {
		if sh.Generation != 2 {
			t.Errorf("shard %d reports generation %d, want 2", i, sh.Generation)
		}
	}
}

func TestShardedSwapAll(t *testing.T) {
	s := newStubSharded(2, Config{})
	next := []Classifier{&countingClassifier{trained: 3}, &countingClassifier{trained: 4}}
	if gen := s.Swap(next...); gen != 2 {
		t.Errorf("generation %d, want 2", gen)
	}
	for i := range next {
		if shardClassifier(s, i) != next[i] {
			t.Errorf("shard %d did not install its replacement", i)
		}
	}
	// The epoch holds its own copy: reusing the argument slice cannot
	// reach the serving classifiers.
	next[0] = &countingClassifier{}
	if shardClassifier(s, 0).(*countingClassifier).trained != 3 {
		t.Error("the caller's slice aliases the published epoch")
	}
	defer func() {
		if recover() == nil {
			t.Error("Swap with mismatched length did not panic")
		}
	}()
	s.Swap(next[:1]...)
}

func TestShardedStatsAggregates(t *testing.T) {
	s := newStubSharded(2, Config{Name: "agg"})
	msgs := []*mail.Message{
		toMsg("a@x", 0.05), toMsg("b@x", 0.5), toMsg("c@x", 0.95), toMsg("d@x", 0.99),
	}
	if _, err := s.ClassifyBatch(context.Background(), msgs); err != nil {
		t.Fatal(err)
	}
	s.Classify(toMsg("e@x", 0.01))
	if _, _, err := s.ScoreBatch(context.Background(), msgs); err != nil {
		t.Fatal(err)
	}
	cur, _ := s.Snapshots()
	s.Swap(cur[0], &stubClassifier{})

	st := s.Stats()
	if st.Name != "agg" || len(st.Shards) != 2 || st.Shards[0].Name != "agg/0" || st.Shards[1].Name != "agg/1" {
		t.Fatalf("stats shape: %+v", st)
	}
	if st.Classified != 5 || st.Scored != 4 {
		t.Errorf("combined classified/scored = %d/%d, want 5/4", st.Classified, st.Scored)
	}
	var byLabel uint64
	for _, n := range st.ByLabel {
		byLabel += n
	}
	if byLabel != st.Classified {
		t.Errorf("combined sum(ByLabel) = %d != Classified %d", byLabel, st.Classified)
	}
	// One publish moves every shard: one generation, one retrain, one
	// publish, for the engine and for each shard.
	if st.Generation != 2 || st.Retrains != 1 || st.Publishes != 1 {
		t.Errorf("combined generation/retrains/publishes %d/%d/%d, want 2/1/1", st.Generation, st.Retrains, st.Publishes)
	}
	for i, sh := range st.Shards {
		if sh.Generation != 2 || sh.Retrains != 1 || sh.Publishes != 1 {
			t.Errorf("shard %d generation/retrains/publishes %d/%d/%d, want 2/1/1", i, sh.Generation, sh.Retrains, sh.Publishes)
		}
	}
	// The per-shard breakdown accounts for every combined counter.
	var cls, scr uint64
	for _, sh := range st.Shards {
		cls += sh.Classified
		scr += sh.Scored
	}
	if cls != st.Classified || scr != st.Scored {
		t.Errorf("per-shard breakdown (%d, %d) does not sum to combined (%d, %d)",
			cls, scr, st.Classified, st.Scored)
	}
}

// TestShardedServeWhileRetrainPerShardIsolation hammers ScoreBatch
// across shards while each shard is concurrently retrained by publishes
// that replace it alone and pass the others' classifiers through.
// Within one shard's slice of any batch, all scores must agree and be
// a legal whole-partition count — no publish mid-batch may mix
// generations inside the batch, and no verdict may come from a
// half-trained filter. The -race run additionally proves the fan-out
// itself is race-free.
func TestShardedServeWhileRetrainPerShardIsolation(t *testing.T) {
	const trainN = 200
	const shards = 3
	clfs := make([]Classifier, shards)
	for i := range clfs {
		clfs[i] = &countingClassifier{}
	}
	s := NewSharded(clfs, Config{Workers: 2})
	// Probes spread across enough recipients that every shard sees a
	// slice of every batch; every retrain of shard sh trains its whole
	// partition, so the only legal scores are 0 (the initial snapshot)
	// and that partition's full size.
	msgs := shardedMsgs(96, 24)
	train := &corpus.Corpus{}
	perShard := make([]int, shards)
	for _, m := range msgs {
		perShard[s.ShardFor(m)]++
	}
	for sh := 0; sh < shards; sh++ {
		if perShard[sh] == 0 {
			t.Fatalf("shard %d receives no probes; widen the recipient spread", sh)
		}
	}
	for i := 0; i < trainN*shards; i++ {
		train.Add(toMsg(fmt.Sprintf("u%d@corp.example", i%24), 0.5), i%2 == 0)
	}
	parts := s.Partition(train)

	ctx, stop := context.WithCancel(context.Background())
	var publishMu sync.Mutex
	var wg sync.WaitGroup
	for sh := 0; sh < shards; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			for ctx.Err() == nil {
				retrained := &countingClassifier{}
				for _, ex := range parts[sh].Examples {
					retrained.LearnTokenStream(stubTok.Stream(ex.Msg), ex.Spam, 1)
				}
				// Read-modify-publish under a lock, so one shard's
				// publish never reverts another's.
				publishMu.Lock()
				cur, _ := s.Snapshots()
				next := append([]Classifier(nil), cur...)
				next[sh] = retrained
				s.Swap(next...)
				publishMu.Unlock()
			}
		}(sh)
	}

	legal := func(sh int, score float64) bool {
		n := int(score)
		return float64(n) == score && n >= 0 && (n == 0 || n == parts[sh].Len())
	}
	for round := 0; round < 50; round++ {
		out, _, err := s.ScoreBatch(context.Background(), msgs)
		if err != nil {
			t.Fatal(err)
		}
		first := make(map[int]float64, shards)
		for i, score := range out {
			sh := s.ShardFor(msgs[i])
			if !legal(sh, score) {
				t.Fatalf("round %d: shard %d score %v from a half-trained filter", round, sh, score)
			}
			if prev, seen := first[sh]; !seen {
				first[sh] = score
			} else if score != prev {
				t.Fatalf("round %d: shard %d mixed generations within one batch (%v vs %v)",
					round, sh, prev, score)
			}
		}
	}
	stop()
	wg.Wait()
	if st := s.Stats(); st.Retrains == 0 {
		t.Fatal("no shard retrain published during the hammering")
	}
}

func TestNewShardedValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSharded with no classifiers did not panic")
		}
	}()
	NewSharded(nil, Config{})
}
