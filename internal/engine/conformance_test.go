package engine_test

// Interface-conformance suite: every registered backend must honor
// the Classifier contract the same way — train/classify round-trip,
// Unlearn as the exact inverse of Learn, Save/Load fidelity, and
// race-free concurrent batch classification (run under -race).

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/mail"
	"repro/internal/tokenize"

	// Backends under test register themselves on import.
	_ "repro/internal/graham"
	_ "repro/internal/sbayes"
)

// msg builds a deterministic message from a body string.
func msg(body string) *mail.Message {
	return &mail.Message{
		Header: mail.Header{{Name: "Subject", Value: "conformance probe"}},
		Body:   body,
	}
}

// trainingSet returns clearly separable ham and spam messages,
// repeated often enough to clear Graham's five-occurrence evidence
// floor.
func trainingSet() (ham, spam []*mail.Message) {
	hamBodies := []string{
		"meeting agenda quarterly report budget review minutes\n",
		"project deadline milestone deliverable schedule review\n",
		"lunch tomorrow agenda notes report meeting schedule\n",
	}
	spamBodies := []string{
		"winner prize lottery claim millions urgent transfer\n",
		"cheap pills discount offer urgent winner lottery\n",
		"claim prize transfer millions discount offer pills\n",
	}
	for i := 0; i < 10; i++ {
		for _, b := range hamBodies {
			ham = append(ham, msg(b))
		}
		for _, b := range spamBodies {
			spam = append(spam, msg(b))
		}
	}
	return ham, spam
}

// trained returns a classifier of the named backend trained on the
// standard set.
func trained(t testing.TB, backend string) engine.Classifier {
	t.Helper()
	b, err := engine.Lookup(backend)
	if err != nil {
		t.Fatal(err)
	}
	clf := b.New()
	ham, spam := trainingSet()
	for _, m := range ham {
		clf.Learn(m, false)
	}
	for _, m := range spam {
		clf.Learn(m, true)
	}
	return clf
}

func TestStockBackendsRegistered(t *testing.T) {
	names := engine.Backends()
	want := map[string]bool{"sbayes": false, "graham": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("backend %q not registered (have %v)", n, names)
		}
	}
}

func TestLookupUnknownBackend(t *testing.T) {
	if _, err := engine.Lookup("nonesuch"); err == nil {
		t.Fatal("unknown backend looked up without error")
	}
}

// stockBackends are the backends held to the full conformance
// contract. (The registry may also hold test stubs registered by
// other tests in this binary, so the suite pins the list rather than
// sweeping engine.Backends().)
var stockBackends = []string{"sbayes", "graham"}

// forEachBackend runs a conformance check against every stock
// backend.
func forEachBackend(t *testing.T, check func(t *testing.T, backend string)) {
	for _, name := range stockBackends {
		t.Run(name, func(t *testing.T) { check(t, name) })
	}
}

func TestConformanceTrainClassifyRoundTrip(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		clf := trained(t, backend)
		ns, nh := clf.Counts()
		if ns != 30 || nh != 30 {
			t.Fatalf("counts = (%d, %d), want (30, 30)", ns, nh)
		}
		spamScore := clf.Score(msg("winner lottery prize claim urgent millions\n"))
		hamScore := clf.Score(msg("meeting agenda report budget schedule\n"))
		if spamScore <= hamScore {
			t.Fatalf("spam score %v not above ham score %v", spamScore, hamScore)
		}
		if label, _ := clf.Classify(msg("winner lottery prize claim urgent millions\n")); label != engine.Spam {
			t.Errorf("trained spam message classified %v", label)
		}
		if label, _ := clf.Classify(msg("meeting agenda report budget schedule\n")); label == engine.Spam {
			t.Errorf("trained ham message classified spam")
		}
	})
}

func TestConformanceScoreAndClassifyAgree(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		clf := trained(t, backend)
		probe := msg("meeting winner agenda lottery report prize\n")
		label, score := clf.Classify(probe)
		if got := clf.Score(probe); got != score {
			t.Errorf("Score = %v, Classify score = %v", got, score)
		}
		if score < 0 || score > 1 {
			t.Errorf("score %v outside [0,1]", score)
		}
		_ = label
	})
}

func TestConformanceUnlearnInverse(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		clf := trained(t, backend)
		probes := []*mail.Message{
			msg("meeting winner agenda lottery report\n"),
			msg("budget pills schedule discount review\n"),
		}
		before := make([]float64, len(probes))
		for i, p := range probes {
			before[i] = clf.Score(p)
		}
		ns0, nh0 := clf.Counts()

		extra := msg("novel tokens appearing nowhere else whatsoever\n")
		clf.Learn(extra, true)
		if err := clf.Unlearn(extra, true); err != nil {
			t.Fatalf("unlearn just-learned message: %v", err)
		}
		ns1, nh1 := clf.Counts()
		if ns0 != ns1 || nh0 != nh1 {
			t.Errorf("counts (%d, %d) -> (%d, %d) after learn+unlearn", ns0, nh0, ns1, nh1)
		}
		for i, p := range probes {
			if got := clf.Score(p); got != before[i] {
				t.Errorf("probe %d score %v != %v after learn+unlearn", i, got, before[i])
			}
		}
	})
}

func TestConformanceUnlearnNeverLearnedErrors(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		clf := trained(t, backend)
		if err := clf.Unlearn(msg("tokens never trained anywhere\n"), true); err == nil {
			t.Error("unlearning a never-learned message succeeded")
		}
		// An empty filter cannot unlearn anything.
		b, _ := engine.Lookup(backend)
		if err := b.New().Unlearn(msg("anything\n"), false); err == nil {
			t.Error("unlearning from an empty filter succeeded")
		}
	})
}

// TestConformanceVocabSize: learning a message raises every backend's
// VocabSize by the message's distinct tokens, a token already counted
// on the other side does not count again, and unlearning returns it
// to 0.
func TestConformanceVocabSize(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		b, err := engine.Lookup(backend)
		if err != nil {
			t.Fatal(err)
		}
		clf := b.New()
		first := msg("alpha beta gamma alpha beta delta\n")
		second := msg("gamma delta epsilon zeta\n")
		n1 := clf.Tokenizer().Stream(first).Len()
		clf.Learn(first, true)
		if got := clf.VocabSize(); got != n1 {
			t.Fatalf("VocabSize after one message = %d, want its %d distinct tokens", got, n1)
		}
		union := map[tokenize.Token]bool{}
		for _, m := range []*mail.Message{first, second} {
			for _, tok := range clf.Tokenizer().Stream(m).Tokens() {
				union[tok] = true
			}
		}
		clf.Learn(second, false)
		if got := clf.VocabSize(); got != len(union) {
			t.Fatalf("VocabSize after two messages = %d, want the union's %d tokens", got, len(union))
		}
		if err := clf.Unlearn(first, true); err != nil {
			t.Fatal(err)
		}
		if err := clf.Unlearn(second, false); err != nil {
			t.Fatal(err)
		}
		if got := clf.VocabSize(); got != 0 {
			t.Fatalf("VocabSize after unlearning everything = %d, want 0", got)
		}
	})
}

func TestConformanceLearnWeightedEquivalence(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		b, err := engine.Lookup(backend)
		if err != nil {
			t.Fatal(err)
		}
		naive, weighted := b.New(), b.New()
		background := msg("shared background vocabulary here\n")
		naive.Learn(background, false)
		weighted.Learn(background, false)
		attack := msg("identical attack payload words\n")
		for i := 0; i < 17; i++ {
			naive.Learn(attack, true)
		}
		weighted.LearnWeighted(attack, true, 17)
		probe := msg("attack background vocabulary payload\n")
		if a, b := naive.Score(probe), weighted.Score(probe); a != b {
			t.Errorf("naive %v != weighted %v", a, b)
		}
	})
}

// TestConformanceValidationBinderMatchesLearn: every backend labels a
// bound validation set exactly as learning the query, classifying each
// stream, and unlearning the query would.
func TestConformanceValidationBinderMatchesLearn(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		clf := trained(t, backend)
		tok := clf.Tokenizer()
		var streams []*tokenize.TokenStream
		for _, body := range []string{
			"meeting winner agenda lottery report\n",
			"budget pills schedule discount review\n",
			"novel words nobody trained before\n",
			"winner lottery prize claim urgent millions\n",
		} {
			streams = append(streams, tok.Stream(msg(body)))
		}
		set := clf.BindValidation(streams)
		got := make([]engine.Label, len(streams))
		for _, q := range []struct {
			body string
			spam bool
		}{
			{"lottery winner meeting agenda novel\n", true},
			{"report budget nobody trained words\n", false},
			{"unrelated vocabulary entirely\n", true},
		} {
			qs := tok.Stream(msg(q.body))
			set.ClassifyWith(qs, q.spam, got)
			clf.LearnTokenStream(qs, q.spam, 1)
			for i, ts := range streams {
				if want, _ := clf.ClassifyTokenStream(ts); got[i] != want {
					t.Errorf("query %q stream %d: bound %v, learned %v", q.body, i, got[i], want)
				}
			}
			if err := clf.UnlearnTokenStream(qs, q.spam, 1); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestConformanceSaveLoadFidelity(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		clf := trained(t, backend)
		var buf bytes.Buffer
		if err := clf.Save(&buf); err != nil {
			t.Fatal(err)
		}

		b, _ := engine.Lookup(backend)
		restored := b.New()
		if err := restored.Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		ns0, nh0 := clf.Counts()
		ns1, nh1 := restored.Counts()
		if ns0 != ns1 || nh0 != nh1 {
			t.Fatalf("counts (%d, %d) != restored (%d, %d)", ns0, nh0, ns1, nh1)
		}
		probes := []*mail.Message{
			msg("meeting winner agenda lottery report\n"),
			msg("budget pills schedule discount review\n"),
			msg("entirely novel probe text\n"),
		}
		for i, probe := range probes {
			if a, b := clf.Score(probe), restored.Score(probe); a != b {
				t.Errorf("probe %d: original %v != restored %v", i, a, b)
			}
		}

		// Round-trip determinism: saving the restored filter yields
		// identical bytes.
		var buf2 bytes.Buffer
		if err := restored.Save(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Error("save -> load -> save is not byte-identical")
		}

		// Loading a foreign database fails cleanly.
		other := "sbayes"
		if backend == "sbayes" {
			other = "graham"
		}
		ob, _ := engine.Lookup(other)
		if err := ob.New().Load(bytes.NewReader(buf.Bytes())); err == nil {
			t.Errorf("backend %q loaded a %q database", other, backend)
		}
	})
}

// TestConformanceLoadRejectsTrailingBytes: bytes after a database are
// corruption, not noise to ignore. A saved database with a byte
// appended, and two saved databases back to back, fail to load on
// every backend, and the failed Load leaves the receiver
// byte-identical.
func TestConformanceLoadRejectsTrailingBytes(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		b, err := engine.Lookup(backend)
		if err != nil {
			t.Fatal(err)
		}
		save := func(clf engine.Classifier) []byte {
			var buf bytes.Buffer
			if err := clf.Save(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		hamDB, spamDB := b.New(), b.New()
		hamDB.Learn(msg("meeting agenda report\n"), false)
		spamDB.Learn(msg("winner lottery prize\n"), true)
		first, second := save(hamDB), save(spamDB)
		for name, data := range map[string][]byte{
			"appended byte": append(append([]byte(nil), first...), 0x01),
			"two databases": append(append([]byte(nil), first...), second...),
		} {
			clf := trained(t, backend)
			before := save(clf)
			if err := clf.Load(bytes.NewReader(data)); err == nil {
				ns, nh := clf.Counts()
				t.Errorf("%s: Load succeeded with (%d spam, %d ham)", name, ns, nh)
			}
			if !bytes.Equal(save(clf), before) {
				t.Errorf("%s: the failed Load changed the receiver", name)
			}
		}
	})
}

func TestConformanceCloneIndependence(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		clf := trained(t, backend)
		clone := clf.CloneClassifier()
		ns0, nh0 := clf.Counts()
		if ns1, nh1 := clone.Counts(); ns1 != ns0 || nh1 != nh0 {
			t.Fatalf("clone counts (%d, %d) != original (%d, %d)", ns1, nh1, ns0, nh0)
		}
		probe := msg("meeting winner agenda lottery report\n")
		before := clf.Score(probe)
		if got := clone.Score(probe); got != before {
			t.Fatalf("clone scores %v, original %v", got, before)
		}
		// Training the clone must not touch the original — the
		// snapshot-swap property RetrainIncremental relies on.
		for i := 0; i < 10; i++ {
			clone.Learn(msg("meeting agenda report budget review\n"), true)
		}
		if got := clf.Score(probe); got != before {
			t.Errorf("training the clone changed the original's score %v -> %v", before, got)
		}
		if ns1, nh1 := clf.Counts(); ns1 != ns0 || nh1 != nh0 {
			t.Errorf("training the clone changed the original's counts")
		}
	})
}

// TestConformanceShardedClassifyBatch holds the sharded serving layer
// to the same contract as the single Engine for every stock backend:
// a batch fanned out across recipient-hashed shards of identically
// trained classifiers must reproduce the serial per-message verdicts
// in input order.
func TestConformanceShardedClassifyBatch(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		clf := trained(t, backend)
		msgs := make([]*mail.Message, 150)
		for i := range msgs {
			if i%2 == 0 {
				msgs[i] = msg(fmt.Sprintf("meeting agenda report budget item%d\n", i))
			} else {
				msgs[i] = msg(fmt.Sprintf("winner lottery prize claim item%d\n", i))
			}
			msgs[i].Header.Set("To", fmt.Sprintf("user%d@corp.example", i%17))
		}
		serial := make([]engine.Result, len(msgs))
		for i, m := range msgs {
			label, score := clf.Classify(m)
			serial[i] = engine.Result{Label: label, Score: score, Generation: 1} // a new engine serves generation 1
		}
		clfs := make([]engine.Classifier, 4)
		for i := range clfs {
			clfs[i] = clf.CloneClassifier()
		}
		sh := engine.NewSharded(clfs, engine.Config{Name: backend + "-sharded", Workers: 2})
		parallel, err := sh.ClassifyBatch(context.Background(), msgs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if parallel[i] != serial[i] {
				t.Fatalf("result %d: sharded %+v != serial %+v", i, parallel[i], serial[i])
			}
		}
		for i, m := range msgs {
			if got := sh.Classify(m); got != serial[i] {
				t.Fatalf("single verdict %d: sharded %+v != serial %+v", i, got, serial[i])
			}
		}
		st := sh.Stats()
		if st.Classified != uint64(2*len(msgs)) {
			t.Errorf("combined Classified = %d, want %d", st.Classified, 2*len(msgs))
		}
	})
}

// TestConformancePersistenceRoundTrip holds every backend to the
// serving-layer durability contract: while concurrent ClassifyBatch
// traffic is in flight (run under -race via `make race`), the
// engine's snapshot is saved through the persistence envelope and
// resumed into a fresh engine, which must reproduce the original's
// verdicts and scores exactly on a held-out corpus.
func TestConformancePersistenceRoundTrip(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		clf := trained(t, backend)
		eng := engine.New(clf, engine.Config{Name: backend, Workers: 4})

		held := make([]*mail.Message, 60)
		for i := range held {
			if i%2 == 0 {
				held[i] = msg(fmt.Sprintf("meeting agenda report budget held%d\n", i))
			} else {
				held[i] = msg(fmt.Sprintf("winner lottery prize claim held%d\n", i))
			}
		}

		// Keep batch traffic flowing against the serving snapshot for
		// the whole save — persistence must never require quiescence.
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

		st := engine.NewMemStore()
		if _, err := engine.SaveEngine(st, "conformance", eng); err != nil {
			t.Fatal(err)
		}
		resumed, env, err := engine.ResumeEngine(st, "conformance", 1, engine.Config{Name: backend + "-resumed"})
		if err != nil {
			t.Fatal(err)
		}
		close(stop)
		if err := <-trafficDone; err != nil {
			t.Fatal(err)
		}
		if env.Backend != backend || resumed.Generation() != eng.Generation() {
			t.Fatalf("resumed backend %q generation %d (want %q at %d)",
				env.Backend, resumed.Generation(), backend, eng.Generation())
		}
		want, err := eng.ClassifyBatch(context.Background(), held)
		if err != nil {
			t.Fatal(err)
		}
		got, err := resumed.ClassifyBatch(context.Background(), held)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("held-out %d: resumed %+v != original %+v", i, got[i], want[i])
			}
		}
	})
}

func TestConformanceConcurrentClassifyBatch(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		clf := trained(t, backend)
		msgs := make([]*mail.Message, 200)
		for i := range msgs {
			if i%2 == 0 {
				msgs[i] = msg(fmt.Sprintf("meeting agenda report budget item%d\n", i))
			} else {
				msgs[i] = msg(fmt.Sprintf("winner lottery prize claim item%d\n", i))
			}
		}
		serial := make([]engine.Result, len(msgs))
		for i, m := range msgs {
			label, score := clf.Classify(m)
			serial[i] = engine.Result{Label: label, Score: score, Generation: 1} // a new engine serves generation 1
		}
		eng := engine.New(clf, engine.Config{Name: backend, Workers: 8})
		parallel, err := eng.ClassifyBatch(context.Background(), msgs)
		if err != nil {
			t.Fatal(err)
		}
		if len(parallel) != len(serial) {
			t.Fatalf("batch returned %d results for %d messages", len(parallel), len(msgs))
		}
		for i := range serial {
			if parallel[i] != serial[i] {
				t.Fatalf("result %d: parallel %+v != serial %+v (order not preserved?)", i, parallel[i], serial[i])
			}
		}
	})
}
