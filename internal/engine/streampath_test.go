package engine_test

// Stream-path conformance suite: the tokenize-once pipeline must be a
// pure optimization. For every stock backend, the interned-ID stream
// path (ClassifyTokenStream / LearnTokenStream) and the whole-message
// convenience methods (Classify / Learn) must produce identical
// verdicts, identical scores, and byte-identical saved snapshots — and
// the serving snapshot must survive clone+swap while stream-path
// classification traffic is in flight (run under -race via
// `make race`).

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/mail"
	"repro/internal/tokenize"
)

// streamProbes mixes trained vocabulary, unseen tokens, and repeated
// tokens (so occurrence-count handling is exercised, not just
// presence).
func streamProbes() []*mail.Message {
	return []*mail.Message{
		msg("winner lottery prize claim urgent millions\n"),
		msg("meeting agenda report budget schedule\n"),
		msg("meeting winner agenda lottery report prize\n"),
		msg("entirely novel probe text\n"),
		msg("winner winner winner lottery lottery agenda\n"),
		msg(""),
	}
}

// TestConformanceStreamVerdictEquivalence proves all classification
// entry points agree on every probe: whole-message Classify, the
// interned stream path, and a stream rebuilt from the distinct tokens
// through StreamFromTokens.
func TestConformanceStreamVerdictEquivalence(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		clf := trained(t, backend)
		tok := clf.Tokenizer()
		for i, p := range streamProbes() {
			wantLabel, wantScore := clf.Classify(p)

			ts := tok.Stream(p)
			if label, score := clf.ClassifyTokenStream(ts); label != wantLabel || score != wantScore {
				t.Errorf("probe %d: stream (%v, %v) != message (%v, %v)", i, label, score, wantLabel, wantScore)
			}
			if got := clf.ScoreTokenStream(ts); got != wantScore {
				t.Errorf("probe %d: stream score %v != message score %v", i, got, wantScore)
			}

			words := make([]string, ts.Len())
			for j := range words {
				words[j] = string(ts.At(j))
			}
			bridge := tokenize.StreamFromTokens(words)
			if label, score := clf.ClassifyTokenStream(bridge); label != wantLabel || score != wantScore {
				t.Errorf("probe %d: bridged stream (%v, %v) != message (%v, %v)", i, label, score, wantLabel, wantScore)
			}
		}
	})
}

// TestConformanceStreamTrainingSnapshotEquivalence trains one filter
// through whole messages and a second through pre-tokenized streams,
// then demands indistinguishable filters: same counts, same verdicts,
// and byte-identical saved snapshots (the persisted symbol table is
// sorted, so intern order must not leak into the database).
func TestConformanceStreamTrainingSnapshotEquivalence(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		b, err := engine.Lookup(backend)
		if err != nil {
			t.Fatal(err)
		}
		viaMsg, viaStream := b.New(), b.New()
		tok := viaStream.Tokenizer()

		ham, spam := trainingSet()
		for _, m := range ham {
			viaMsg.Learn(m, false)
			viaStream.LearnTokenStream(tok.Stream(m), false, 1)
		}
		for _, m := range spam {
			viaMsg.Learn(m, true)
			viaStream.LearnTokenStream(tok.Stream(m), true, 1)
		}

		ns0, nh0 := viaMsg.Counts()
		if ns1, nh1 := viaStream.Counts(); ns1 != ns0 || nh1 != nh0 {
			t.Fatalf("stream-trained counts (%d, %d) != message-trained (%d, %d)", ns1, nh1, ns0, nh0)
		}
		for i, p := range streamProbes() {
			if a, b := viaMsg.Score(p), viaStream.Score(p); a != b {
				t.Errorf("probe %d: message-trained %v != stream-trained %v", i, a, b)
			}
		}

		saved := func(clf engine.Classifier) []byte {
			var buf bytes.Buffer
			if err := clf.Save(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		if !bytes.Equal(saved(viaMsg), saved(viaStream)) {
			t.Error("stream-trained snapshot differs from message-trained snapshot")
		}
	})
}

// TestConformanceStreamPersistenceRoundTrip proves interned symbol
// tables survive the format-bumped database round-trip: a restored
// filter reproduces the original's stream-path verdicts exactly and
// re-saves to identical bytes.
func TestConformanceStreamPersistenceRoundTrip(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		clf := trained(t, backend)
		tok := clf.Tokenizer()

		var buf bytes.Buffer
		if err := clf.Save(&buf); err != nil {
			t.Fatal(err)
		}
		b, _ := engine.Lookup(backend)
		restored := b.New()
		if err := restored.Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		rtok := restored.Tokenizer()
		for i, p := range streamProbes() {
			ts, rts := tok.Stream(p), rtok.Stream(p)
			if ts.Digest() != rts.Digest() {
				t.Errorf("probe %d: restored tokenizer digest %x != original %x", i, rts.Digest(), ts.Digest())
			}
			wantLabel, wantScore := clf.ClassifyTokenStream(ts)
			if label, score := restored.ClassifyTokenStream(rts); label != wantLabel || score != wantScore {
				t.Errorf("probe %d: restored stream (%v, %v) != original (%v, %v)", i, label, score, wantLabel, wantScore)
			}
		}
	})
}

// TestConformanceStreamUnlearnInverse holds the weighted stream
// learner to the exact-inverse contract on its own path: learning a
// stream with weight w and unlearning the same stream with weight w
// restores every probe score and the training counts.
func TestConformanceStreamUnlearnInverse(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		clf := trained(t, backend)
		probes := streamProbes()
		before := make([]float64, len(probes))
		for i, p := range probes {
			before[i] = clf.Score(p)
		}
		ns0, nh0 := clf.Counts()

		ts := clf.Tokenizer().Stream(msg("novel tokens appearing nowhere else whatsoever\n"))
		clf.LearnTokenStream(ts, true, 3)
		if err := clf.UnlearnTokenStream(ts, true, 3); err != nil {
			t.Fatalf("unlearn just-learned stream: %v", err)
		}
		if ns1, nh1 := clf.Counts(); ns1 != ns0 || nh1 != nh0 {
			t.Errorf("counts (%d, %d) -> (%d, %d) after stream learn+unlearn", ns0, nh0, ns1, nh1)
		}
		for i, p := range probes {
			if got := clf.Score(p); got != before[i] {
				t.Errorf("probe %d score %v != %v after stream learn+unlearn", i, got, before[i])
			}
		}
	})
}

// TestConformanceStreamClassifyDuringSwap keeps stream-path batch
// classification in flight while a guarded RetrainIncremental clones
// the serving classifier, trains the clone, and swaps snapshots — the
// clone/swap property the per-snapshot symbol tables must preserve
// (run under -race via `make race`).
func TestConformanceStreamClassifyDuringSwap(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		clf := trained(t, backend)
		eng := engine.New(clf, engine.Config{Name: backend, Workers: 4})
		g := engine.NewGuarded(eng, markerAdmitter{}, engine.GuardedConfig{})

		held := make([]*mail.Message, 40)
		for i := range held {
			if i%2 == 0 {
				held[i] = msg(fmt.Sprintf("meeting agenda report budget held%d\n", i))
			} else {
				held[i] = msg(fmt.Sprintf("winner lottery prize claim held%d\n", i))
			}
		}
		stop := make(chan struct{})
		trafficDone := make(chan error, 1)
		go func() {
			for {
				select {
				case <-stop:
					trafficDone <- nil
					return
				default:
					if _, err := eng.ClassifyBatch(context.Background(), held); err != nil {
						trafficDone <- err
						return
					}
				}
			}
		}()

		delta := &corpus.Corpus{}
		for i := 0; i < 5; i++ {
			delta.Add(msg(fmt.Sprintf("fresh spam vocabulary wave%d\n", i)), true)
		}
		gen0 := eng.Generation()
		for i := 0; i < 3; i++ {
			if _, err := g.RetrainIncremental(context.Background(), delta); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
		if err := <-trafficDone; err != nil {
			t.Fatal(err)
		}
		if got := eng.Generation(); got != gen0+3 {
			t.Fatalf("generation %d after 3 swaps from %d", got, gen0)
		}
		// The swapped-in snapshot still serves the stream path.
		res, err := eng.ClassifyBatch(context.Background(), held)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range held {
			if got := eng.Classify(m); got != res[i] {
				t.Fatalf("held %d: single %+v != batch %+v after swaps", i, got, res[i])
			}
		}
	})
}
