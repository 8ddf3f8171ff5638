package engine

// Sharded serving suite: routing fidelity, input-order restitching of
// fanned-out batches, per-shard retraining isolation, stats
// aggregation, and the -race torn-read property (a shard retrain
// mid-batch must never mix generations within that shard's slice of
// the batch). Run under -race (make race).

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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

func newStubSharded(n int, cfg ShardedConfig) *Sharded {
	clfs := make([]Classifier, n)
	for i := range clfs {
		clfs[i] = &stubClassifier{}
	}
	return NewSharded(clfs, cfg)
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
	s := newStubSharded(4, ShardedConfig{Name: "route"})
	for i := 0; i < 32; i++ {
		m := toMsg(fmt.Sprintf("user%d@corp.example", i), 0.5)
		want := int(RecipientKey(m) % 4)
		if got := s.ShardFor(m); got != want {
			t.Fatalf("ShardFor(user%d) = %d, want %d", i, got, want)
		}
		s.Classify(m)
		if got := s.Shard(want).Stats().Classified; got == 0 {
			t.Fatalf("message %d did not land on shard %d", i, want)
		}
	}
	total := uint64(0)
	for i := 0; i < s.NumShards(); i++ {
		total += s.Shard(i).Stats().Classified
	}
	if total != 32 {
		t.Fatalf("shards classified %d messages in total, want 32", total)
	}
}

func TestShardedClassifyBatchOrderPreserved(t *testing.T) {
	s := newStubSharded(3, ShardedConfig{Workers: 2})
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
	s := newStubSharded(2, ShardedConfig{})
	msgs := shardedMsgs(40, 5)
	out, err := s.ScoreBatch(context.Background(), msgs)
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
	s := NewSharded(clfs, ShardedConfig{Workers: 1})
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
	s := newStubSharded(3, ShardedConfig{})
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
	s := NewSharded(clfs, ShardedConfig{})
	train := &corpus.Corpus{}
	msgs := shardedMsgs(100, 13)
	for i, m := range msgs {
		train.Add(m, i%2 == 0)
	}
	gens, err := s.Retrain(context.Background(), func() Classifier { return &countingClassifier{} }, train)
	if err != nil {
		t.Fatal(err)
	}
	parts := s.Partition(train)
	for sh := range clfs {
		if gens[sh] != 2 {
			t.Errorf("shard %d generation %d, want 2", sh, gens[sh])
		}
		probe := &mail.Message{}
		if got := s.Shard(sh).Classifier().Score(probe); got != float64(parts[sh].Len()) {
			t.Errorf("shard %d trained on %v examples, want its slice of %d", sh, got, parts[sh].Len())
		}
	}
}

func TestShardedRetrainIncrementalAll(t *testing.T) {
	clfs := make([]Classifier, 2)
	for i := range clfs {
		clfs[i] = &countingClassifier{trained: 5}
	}
	s := NewSharded(clfs, ShardedConfig{})
	delta := &corpus.Corpus{}
	for i, m := range shardedMsgs(20, 9) {
		delta.Add(m, i%2 == 0)
	}
	if _, err := s.RetrainIncremental(context.Background(), delta); err != nil {
		t.Fatal(err)
	}
	parts := s.Partition(delta)
	for sh := 0; sh < s.NumShards(); sh++ {
		want := float64(5 + parts[sh].Len())
		if got := s.Shard(sh).Classifier().Score(&mail.Message{}); got != want {
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

func TestShardedPerShardRetrainLeavesOthersUntouched(t *testing.T) {
	clfs := []Classifier{&countingClassifier{trained: 1}, &countingClassifier{trained: 1}}
	s := NewSharded(clfs, ShardedConfig{})
	gen, err := s.Shard(1).Retrain(context.Background(), func() Classifier { return &countingClassifier{} }, trainCorpus(9))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("shard 1 generation %d, want 2", gen)
	}
	if g := s.Shard(0).Generation(); g != 1 {
		t.Fatalf("shard 0 generation moved to %d by a shard-1 retrain", g)
	}
	if got := s.Shard(1).Classifier().Score(&mail.Message{}); got != 9 {
		t.Fatalf("shard 1 scores %v, want 9", got)
	}
	if got := s.Shard(0).Classifier().Score(&mail.Message{}); got != 1 {
		t.Fatalf("shard 0 snapshot changed: score %v, want 1", got)
	}
}

func TestShardedSwapAll(t *testing.T) {
	s := newStubSharded(2, ShardedConfig{})
	next := []Classifier{&countingClassifier{trained: 3}, &countingClassifier{trained: 4}}
	gens := s.Swap(next...)
	for i, g := range gens {
		if g != 2 {
			t.Errorf("shard %d generation %d, want 2", i, g)
		}
		if s.Shard(i).Classifier() != next[i] {
			t.Errorf("shard %d did not install its replacement", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Swap with mismatched length did not panic")
		}
	}()
	s.Swap(next[:1]...)
}

func TestShardedLearnStreamRoutesByKey(t *testing.T) {
	clfs := []Classifier{&stubClassifier{}, &stubClassifier{}, &stubClassifier{}}
	s := NewSharded(clfs, ShardedConfig{LearnBuffer: 4})
	in, wait := s.LearnStream(context.Background())
	msgs := shardedMsgs(60, 12)
	for i, m := range msgs {
		in <- Labeled{Msg: m, Spam: i%3 == 0}
	}
	close(in)
	n, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if n != 60 {
		t.Fatalf("learned %d, want 60", n)
	}
	// Every example landed on the shard its key selects.
	counts := make(map[int]int)
	for _, m := range msgs {
		counts[s.ShardFor(m)]++
	}
	for sh, want := range counts {
		ns, nh := s.Shard(sh).Classifier().Counts()
		if ns+nh != want {
			t.Errorf("shard %d trained %d examples, want %d", sh, ns+nh, want)
		}
		if got := s.Shard(sh).Stats().Learned; got != uint64(want) {
			t.Errorf("shard %d Stats.Learned = %d, want %d", sh, got, want)
		}
	}
	if st := s.Stats(); st.Learned != 60 {
		t.Errorf("combined Learned = %d", st.Learned)
	}
}

func TestShardedLearnStreamCancellationUnblocksProducer(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := newStubSharded(2, ShardedConfig{LearnBuffer: 1})
	in, wait := s.LearnStream(ctx)
	cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			in <- Labeled{Msg: toMsg("u@x", 0.5)}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("producer still blocked after cancellation")
	}
	if _, err := wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestShardedLearnStreamAbandonedAfterCancelDoesNotLeak(t *testing.T) {
	// Regression for the router forward race: an example in flight to
	// a full shard stream at cancellation must not strand the router
	// goroutine (wait lets the router exit before the shard drains
	// shut down), and a producer that abandons the channel without
	// closing it must not leak the drain.
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		s := newStubSharded(3, ShardedConfig{LearnBuffer: 1})
		in, wait := s.LearnStream(ctx)
		for j := 0; j < 3; j++ {
			in <- Labeled{Msg: toMsg(fmt.Sprintf("u%d@x", j), 0.5), Spam: true}
		}
		cancel()
		if _, err := wait(); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: err = %v", i, err)
		}
		// The channel is deliberately never closed.
		_ = in
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after 20 abandoned sharded streams",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestShardedStatsAggregates(t *testing.T) {
	s := newStubSharded(2, ShardedConfig{Name: "agg"})
	msgs := []*mail.Message{
		toMsg("a@x", 0.05), toMsg("b@x", 0.5), toMsg("c@x", 0.95), toMsg("d@x", 0.99),
	}
	if _, err := s.ClassifyBatch(context.Background(), msgs); err != nil {
		t.Fatal(err)
	}
	s.Classify(toMsg("e@x", 0.01))
	if _, err := s.ScoreBatch(context.Background(), msgs); err != nil {
		t.Fatal(err)
	}
	s.Shard(1).Swap(&stubClassifier{})

	st := s.Stats()
	if st.Name != "agg" || len(st.Shards) != 2 || len(st.Generations) != 2 {
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
	if st.Generations[0] != 1 || st.Generations[1] != 2 {
		t.Errorf("generations %v, want [1 2]", st.Generations)
	}
	if st.Generation != 1 {
		t.Errorf("combined generation %d, want 1 (oldest shard)", st.Generation)
	}
	if st.Retrains != 1 {
		t.Errorf("combined retrains %d, want 1", st.Retrains)
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

// TestShardedServeWhileRetrainPerShardIsolation hammers ClassifyBatch
// across shards while every shard is concurrently retrained. Within
// one shard's slice of any batch, all scores must agree (one snapshot
// per shard per batch) and be a legal whole-corpus multiple — a shard
// retrain mid-batch must never mix generations inside that shard's
// slice, and no verdict may come from a half-trained filter. The
// -race run additionally proves the fan-out itself is race-free.
func TestShardedServeWhileRetrainPerShardIsolation(t *testing.T) {
	const trainN = 200
	const shards = 3
	clfs := make([]Classifier, shards)
	for i := range clfs {
		clfs[i] = &countingClassifier{}
	}
	s := NewSharded(clfs, ShardedConfig{Workers: 2})
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
	var wg sync.WaitGroup
	for sh := 0; sh < shards; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			for ctx.Err() == nil {
				if _, err := s.Shard(sh).Retrain(context.Background(),
					func() Classifier { return &countingClassifier{} }, parts[sh]); err != nil {
					t.Errorf("shard %d Retrain: %v", sh, err)
					return
				}
			}
		}(sh)
	}

	legal := func(sh int, score float64) bool {
		n := int(score)
		return float64(n) == score && n >= 0 && (n == 0 || n == parts[sh].Len())
	}
	for round := 0; round < 50; round++ {
		out, err := s.ScoreBatch(context.Background(), msgs)
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
	NewSharded(nil, ShardedConfig{})
}
