package engine

// One-epoch suite: every shard's classifier and the one generation
// they serve at sit behind a single pointer, so a batch that spans the
// shards answers every message from one published generation while
// publishes land concurrently. Run under -race (make race).

import (
	"context"
	"sync"
	"testing"

	"repro/internal/corpus"
)

// TestFleetBatchesReadOneEpoch hammers ClassifyBatch and ScoreBatch on
// a 3-shard engine, plain and through its guard, while another
// goroutine publishes through Swap and Guarded.RetrainIncremental.
// Every publish moves every shard's count to the same new value — a
// Swap installs counts of current+1, and an incremental delta holds
// one example per shard — so a batch whose answers disagree read two
// generations.
func TestFleetBatchesReadOneEpoch(t *testing.T) {
	for _, mode := range []string{"plain", "guarded"} {
		t.Run(mode, func(t *testing.T) {
			const shards = 3
			clfs := make([]Classifier, shards)
			for i := range clfs {
				clfs[i] = &countingClassifier{}
			}
			e := NewSharded(clfs, Config{Workers: 2})
			g := guard(e)
			msgs := shardedMsgs(96, 24)
			delta := &corpus.Corpus{}
			for sh := 0; sh < shards; sh++ {
				for _, m := range msgs {
					if e.ShardFor(m) == sh {
						delta.Add(m, true)
						break
					}
				}
			}
			if delta.Len() != shards {
				t.Fatalf("probes reach %d of %d shards; widen the recipient spread", delta.Len(), shards)
			}

			ctx, stop := context.WithCancel(context.Background())
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ctx.Err() == nil; i++ {
					if i%2 == 1 {
						if _, err := g.RetrainIncremental(context.Background(), delta); err != nil {
							t.Errorf("RetrainIncremental: %v", err)
							return
						}
						continue
					}
					cur, _ := e.Snapshots()
					next := make([]Classifier, shards)
					for sh := range next {
						next[sh] = &countingClassifier{trained: cur[0].(*countingClassifier).trained + 1}
					}
					if mode == "plain" {
						e.Swap(next...)
					} else if _, err := g.Swap(next...); err != nil {
						t.Errorf("Swap: %v", err)
						return
					}
				}
			}()

			classify, score := e.ClassifyBatch, e.ScoreBatch
			if mode == "guarded" {
				classify, score = g.ClassifyBatch, g.ScoreBatch
			}
			for round := 0; round < 200; round++ {
				res, err := classify(context.Background(), msgs)
				if err != nil {
					t.Fatal(err)
				}
				for i := range res {
					if res[i].Score != res[0].Score || res[i].Generation != res[0].Generation {
						t.Fatalf("round %d: ClassifyBatch mixed generations (count %v and %v)", round, res[0].Score, res[i].Score)
					}
				}
				scores, _, err := score(context.Background(), msgs)
				if err != nil {
					t.Fatal(err)
				}
				for i := range scores {
					if scores[i] != scores[0] {
						t.Fatalf("round %d: ScoreBatch mixed generations (count %v and %v)", round, scores[0], scores[i])
					}
				}
			}
			stop()
			wg.Wait()
			if e.Generation() < 3 {
				t.Fatalf("only %d publishes landed during the hammering", e.Generation()-1)
			}
		})
	}
}
