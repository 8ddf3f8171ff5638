package engine_test

// Guarded conformance at both fleet sizes — a single engine (the
// one-shard fleet NewGuarded builds) and three recipient-hashed
// shards: admission vets only the training path (ClassifyBatch is
// never blocked, even by a wedged admitter), each decision lands in
// the admission counters of its destination shard with the Vetted ==
// Admitted+Quarantined+Rejected invariant, sum(per-shard) == combined
// holds under concurrent vetting, and the publish hooks run in order —
// PrePublish on every replacement before any shard swaps, PostPublish
// once per publish — with a hook error aborting the whole publish. Run
// under -race via `make race`.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/mail"
	"repro/internal/obs"
	"repro/internal/tokenize"
)

// markerAdmitter rejects bodies containing "poison", quarantines
// bodies containing "odd", accepts the rest.
type markerAdmitter struct{}

func (markerAdmitter) Name() string { return "marker" }
func (markerAdmitter) Admit(_ context.Context, m *mail.Message, _ *tokenize.TokenStream, _ bool) engine.AdmitDecision {
	switch {
	case strings.Contains(m.Body, "poison"):
		return engine.AdmitDecision{Verdict: engine.AdmitReject, Reason: "marker: poison"}
	case strings.Contains(m.Body, "odd"):
		return engine.AdmitDecision{Verdict: engine.AdmitQuarantine, Reason: "marker: odd"}
	default:
		return engine.AdmitDecision{Verdict: engine.AdmitAccept, Reason: "marker: clean"}
	}
}

// blockingAdmitter blocks every Admit call until released.
type blockingAdmitter struct {
	release chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (b *blockingAdmitter) Name() string { return "blocking" }
func (b *blockingAdmitter) Admit(context.Context, *mail.Message, *tokenize.TokenStream, bool) engine.AdmitDecision {
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return engine.AdmitDecision{Verdict: engine.AdmitAccept}
}

// heldSink records quarantined messages and the streams they were
// held with.
type heldSink struct {
	mu      sync.Mutex
	held    []*mail.Message
	streams []*tokenize.TokenStream
}

func (s *heldSink) Hold(m *mail.Message, ts *tokenize.TokenStream, _ bool, _ string) {
	s.mu.Lock()
	s.held = append(s.held, m)
	s.streams = append(s.streams, ts)
	s.mu.Unlock()
}

func (s *heldSink) Restream(stream func(*mail.Message) *tokenize.TokenStream) {
	s.mu.Lock()
	for i, m := range s.held {
		s.streams[i] = stream(m)
	}
	s.mu.Unlock()
}

// guardSizes are the fleet sizes every guard behaviour is checked at.
var guardSizes = []int{1, 3}

// forEachSize runs check once per fleet size, as subtest "shards=N".
func forEachSize(t *testing.T, check func(t *testing.T, n int)) {
	for _, n := range guardSizes {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { check(t, n) })
	}
}

// newGuard guards n shards, shard i serving mk(i): one shard goes
// through New, more through NewSharded.
func newGuard(n int, mk func(i int) engine.Classifier, admit engine.Admitter, cfg engine.GuardedConfig) *engine.Guarded {
	if n == 1 {
		return engine.NewGuarded(engine.New(mk(0), engine.Config{}), admit, cfg)
	}
	clfs := make([]engine.Classifier, n)
	for i := range clfs {
		clfs[i] = mk(i)
	}
	return engine.NewGuarded(engine.NewSharded(clfs, engine.Config{}), admit, cfg)
}

// userMsg is msg addressed to user u, so a fleet spreads a run of
// users across its shards.
func userMsg(body string, u int) *mail.Message {
	m := msg(body)
	m.Header.Set("To", fmt.Sprintf("user%d@corp.example", u))
	return m
}

// sumAdmission adds up the per-shard admission counters.
func sumAdmission(st engine.Stats) engine.AdmissionStats {
	var sum engine.AdmissionStats
	for _, s := range st.Shards {
		sum.Vetted += s.Admission.Vetted
		sum.Admitted += s.Admission.Admitted
		sum.Quarantined += s.Admission.Quarantined
		sum.Rejected += s.Admission.Rejected
	}
	return sum
}

// spamCounts sums the spam examples every shard's snapshot trained.
func spamCounts(g *engine.Guarded) int {
	total := 0
	clfs, _ := g.Engine().Snapshots()
	for _, clf := range clfs {
		ns, _ := clf.Counts()
		total += ns
	}
	return total
}

func TestGuardedNeverBlocksClassifyBatch(t *testing.T) {
	// A wedged admitter (stuck mid-probe, say) must not stall scoring:
	// the admission pipeline sits on the training path only.
	forEachSize(t, func(t *testing.T, n int) {
		block := &blockingAdmitter{release: make(chan struct{}), entered: make(chan struct{})}
		g := newGuard(n, func(int) engine.Classifier { return trained(t, "sbayes") }, block, engine.GuardedConfig{})

		delta := &corpus.Corpus{}
		delta.Add(msg("stuck example\n"), true)
		retrained := make(chan error, 1)
		go func() {
			_, err := g.RetrainIncremental(context.Background(), delta)
			retrained <- err
		}()
		<-block.entered // the retrain is now wedged inside Admit

		batch := []*mail.Message{
			userMsg("winner lottery prize claim urgent millions\n", 0),
			userMsg("meeting agenda report\n", 1),
			userMsg("meeting agenda report\n", 2),
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			if _, err := g.ClassifyBatch(context.Background(), batch); err != nil {
				t.Error(err)
			}
			if g.Classify(batch[0]).Label != engine.Spam {
				t.Error("classify through the guard misfired")
			}
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("ClassifyBatch blocked behind a wedged admitter")
		}
		close(block.release)
		if err := <-retrained; err != nil {
			t.Fatal(err)
		}
	})
}

func TestGuardedRetrainVetsAndRunsHooks(t *testing.T) {
	// Vetting happens once, at the gateway: only the admitted subset
	// reaches any shard. PrePublish sees every shard's replacement
	// before PostPublish runs, once per publish.
	forEachBackend(t, func(t *testing.T, backend string) {
		forEachSize(t, func(t *testing.T, n int) {
			b, err := engine.Lookup(backend)
			if err != nil {
				t.Fatal(err)
			}
			var order []string
			cfg := engine.GuardedConfig{
				PrePublish:  []func(engine.Classifier) error{func(engine.Classifier) error { order = append(order, "pre"); return nil }},
				PostPublish: []func(){func() { order = append(order, "post") }},
			}
			g := newGuard(n, func(int) engine.Classifier { return b.New() }, markerAdmitter{}, cfg)
			wantOrder := strings.Repeat("pre,", n) + "post"

			train := &corpus.Corpus{}
			for i := 0; i < 8; i++ {
				train.Add(userMsg(fmt.Sprintf("clean spam words %d\n", i), i), true)
			}
			train.Add(userMsg("poison payload\n", 0), true)
			gen, err := g.RetrainIncremental(context.Background(), train)
			if err != nil {
				t.Fatal(err)
			}
			if gen != 2 {
				t.Errorf("generation %d after first retrain, want 2", gen)
			}
			for i, sh := range g.Stats().Shards {
				if sh.Generation != gen {
					t.Errorf("shard %d serves generation %d after the retrain published %d", i, sh.Generation, gen)
				}
			}
			if got := spamCounts(g); got != 8 {
				t.Errorf("replacements trained on %d spam, want the 8 admitted", got)
			}
			if got := strings.Join(order, ","); got != wantOrder {
				t.Errorf("hook order %v, want %v", got, wantOrder)
			}
			// A second retrain vets too and the clones extend the
			// admitted state only.
			order = nil
			delta := &corpus.Corpus{}
			delta.Add(userMsg("clean followup\n", 5), true)
			delta.Add(userMsg("poison again\n", 6), true)
			if _, err := g.RetrainIncremental(context.Background(), delta); err != nil {
				t.Fatal(err)
			}
			if got := spamCounts(g); got != 9 {
				t.Errorf("incremental clones trained on %d spam, want 9", got)
			}
			if got := strings.Join(order, ","); got != wantOrder {
				t.Errorf("incremental hook order %v, want %v", got, wantOrder)
			}
			if a := g.Stats().Admission; a.Admitted != 9 || a.Rejected != 2 {
				t.Errorf("admission counters %+v, want 9 admitted and 2 rejected", a)
			}
		})
	})
}

func TestGuardedShardedRetrainAllVetsAtGateway(t *testing.T) {
	// A fleet retrain vets the whole corpus once at the gateway: every
	// shard gets a replacement in the one published epoch, and together
	// they hold only the admitted spam.
	b, err := engine.Lookup("sbayes")
	if err != nil {
		t.Fatal(err)
	}
	sh := engine.NewSharded([]engine.Classifier{b.New(), b.New()}, engine.Config{})
	g := engine.NewGuarded(sh, markerAdmitter{}, engine.GuardedConfig{})
	train := &corpus.Corpus{}
	for i := 0; i < 10; i++ {
		train.Add(userMsg(fmt.Sprintf("clean words %d\n", i), i%4), true)
	}
	train.Add(userMsg("poison payload\n", 0), true)

	gen, err := g.RetrainIncremental(context.Background(), train)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 || sh.Generation() != 2 {
		t.Errorf("retrain published generation %d, engine serves %d, want 2", gen, sh.Generation())
	}
	if got := spamCounts(g); got != 10 {
		t.Errorf("shards trained on %d spam total, want the 10 admitted", got)
	}
}

// streamLog is a set of token-stream pointers, safe for the shards a
// retrain trains concurrently.
type streamLog struct {
	mu      sync.Mutex
	streams map[*tokenize.TokenStream]bool
}

func (l *streamLog) add(ts *tokenize.TokenStream) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.streams == nil {
		l.streams = map[*tokenize.TokenStream]bool{}
	}
	l.streams[ts] = true
}

func (l *streamLog) set() map[*tokenize.TokenStream]bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return maps.Clone(l.streams)
}

// streamOnly is a backend classifier whose message methods fail the
// test: the engine must train the streams it vetted. Every stream
// LearnTokenStream trains lands in learned, which its clones share.
type streamOnly struct {
	engine.Classifier
	t       *testing.T
	learned *streamLog
}

func (c *streamOnly) fail(method string) {
	c.t.Errorf("the engine called the message method %s", method)
}

func (c *streamOnly) Learn(*mail.Message, bool)              { c.fail("Learn") }
func (c *streamOnly) LearnWeighted(*mail.Message, bool, int) { c.fail("LearnWeighted") }
func (c *streamOnly) Unlearn(*mail.Message, bool) error      { c.fail("Unlearn"); return nil }
func (c *streamOnly) Score(*mail.Message) float64            { c.fail("Score"); return 0 }
func (c *streamOnly) Classify(*mail.Message) (engine.Label, float64) {
	c.fail("Classify")
	return engine.Unsure, 0
}

func (c *streamOnly) LearnTokenStream(ts *tokenize.TokenStream, isSpam bool, weight int) {
	c.learned.add(ts)
	c.Classifier.LearnTokenStream(ts, isSpam, weight)
}

func (c *streamOnly) CloneClassifier() engine.Classifier {
	return &streamOnly{Classifier: c.Classifier.CloneClassifier(), t: c.t, learned: c.learned}
}

// streamAdmitter is markerAdmitter recording the stream it judged,
// by verdict.
type streamAdmitter struct {
	markerAdmitter
	accepted, held streamLog
}

func (a *streamAdmitter) Admit(ctx context.Context, m *mail.Message, ts *tokenize.TokenStream, spam bool) engine.AdmitDecision {
	d := a.markerAdmitter.Admit(ctx, m, ts, spam)
	switch d.Verdict {
	case engine.AdmitAccept:
		a.accepted.add(ts)
	case engine.AdmitQuarantine:
		a.held.add(ts)
	}
	return d
}

// TestRetrainIncrementalTrainsTheVettedStreams: what trains is what
// was vetted. Every shard's classifier fails the test if a message
// method is called, so RetrainIncremental must train through
// LearnTokenStream, on exactly the stream pointers the admitter
// accepted — each candidate tokenized once — while every quarantined
// candidate reaches the sink with the stream it was judged on.
func TestRetrainIncrementalTrainsTheVettedStreams(t *testing.T) {
	forEachSize(t, func(t *testing.T, n int) {
		learned := &streamLog{}
		admit := &streamAdmitter{}
		sink := &heldSink{}
		g := newGuard(n, func(int) engine.Classifier {
			return &streamOnly{Classifier: trained(t, "sbayes"), t: t, learned: learned}
		}, admit, engine.GuardedConfig{Quarantine: sink})
		delta := &corpus.Corpus{}
		for i := 0; i < 12; i++ {
			body := fmt.Sprintf("clean message %d\n", i)
			switch i % 3 {
			case 1:
				body = fmt.Sprintf("poison message %d\n", i)
			case 2:
				body = fmt.Sprintf("odd message %d\n", i)
			}
			delta.Add(userMsg(body, i), i%2 == 0)
		}
		before := spamCounts(g)
		if _, err := g.RetrainIncremental(context.Background(), delta); err != nil {
			t.Fatal(err)
		}
		accepted, held := admit.accepted.set(), admit.held.set()
		if len(accepted) != 4 || len(held) != 4 {
			t.Fatalf("the admitter accepted %d and held %d streams, want 4 and 4", len(accepted), len(held))
		}
		if got := learned.set(); !maps.Equal(got, accepted) {
			t.Errorf("the clones trained %d streams, %d of them the ones the admitter accepted; want exactly the 4 accepted",
				len(got), countIn(got, accepted))
		}
		sinkStreams := map[*tokenize.TokenStream]bool{}
		for _, ts := range sink.streams {
			sinkStreams[ts] = true
		}
		if !maps.Equal(sinkStreams, held) {
			t.Errorf("the sink holds %d streams, %d of them the ones the admitter held; want exactly the 4 held",
				len(sinkStreams), countIn(sinkStreams, held))
		}
		if got := spamCounts(g); got != before+2 {
			t.Errorf("the shards hold %d spam, want the %d trained before plus the 2 admitted", got, before)
		}
	})
}

// TestRetrainIncrementalTracesWhatItTrained: with every message
// sampled, each admitted stream RetrainIncremental trains records one
// learn event, stamped with the generation its publish created and the
// index of the shard it trained on, after the stream's admit event and
// before that shard's publish event. Rejected and held candidates
// record none, and neither does a publish a PrePublish hook aborts.
func TestRetrainIncrementalTracesWhatItTrained(t *testing.T) {
	forEachSize(t, func(t *testing.T, n int) {
		tr := obs.NewTracer(4096, 1)
		clfs := make([]engine.Classifier, n)
		for i := range clfs {
			clfs[i] = trained(t, "sbayes")
		}
		var eng *engine.Engine
		if n == 1 {
			eng = engine.New(clfs[0], engine.Config{Trace: tr})
		} else {
			eng = engine.NewSharded(clfs, engine.Config{Trace: tr})
		}
		abort := false
		g := engine.NewGuarded(eng, markerAdmitter{}, engine.GuardedConfig{
			PrePublish: []func(engine.Classifier) error{func(engine.Classifier) error {
				if abort {
					return errors.New("refit failed")
				}
				return nil
			}},
		})
		delta := &corpus.Corpus{}
		shardOf := map[uint64]int32{} // admitted digest → its shard's trace index
		for i := 0; i < 12; i++ {
			body := fmt.Sprintf("clean message %d\n", i)
			switch i % 3 {
			case 1:
				body = fmt.Sprintf("poison message %d\n", i)
			case 2:
				body = fmt.Sprintf("odd message %d\n", i)
			}
			m := userMsg(body, i)
			delta.Add(m, i%2 == 0)
			if i%3 == 0 {
				idx := int32(-1)
				if n > 1 {
					idx = int32(eng.ShardFor(m))
				}
				shardOf[clfs[0].Tokenizer().Stream(m).Digest()] = idx
			}
		}
		gen, err := g.RetrainIncremental(context.Background(), delta)
		if err != nil {
			t.Fatal(err)
		}
		admitted := map[uint64]uint64{} // digest → seq of its admit event
		published := map[int32]uint64{} // shard index → seq of its publish at gen
		learned := map[uint64]obs.TraceEvent{}
		for _, ev := range tr.Last(0) {
			switch ev.Kind {
			case obs.TraceAdmit:
				admitted[ev.Digest] = ev.Seq
			case obs.TracePublish:
				if ev.Generation == gen {
					published[ev.Shard] = ev.Seq
				}
			case obs.TraceLearn:
				if _, dup := learned[ev.Digest]; dup {
					t.Errorf("digest %x recorded two learn events", ev.Digest)
				}
				learned[ev.Digest] = ev
			}
		}
		if len(learned) != len(shardOf) {
			t.Fatalf("%d learn events, want one for each of the %d admitted streams", len(learned), len(shardOf))
		}
		for digest, shard := range shardOf {
			ev, ok := learned[digest]
			switch {
			case !ok:
				t.Errorf("admitted stream %x recorded no learn event", digest)
			case ev.Generation != gen || ev.Shard != shard:
				t.Errorf("learn event of %x at generation %d on shard %d, want %d on %d", digest, ev.Generation, ev.Shard, gen, shard)
			case !(admitted[digest] < ev.Seq && ev.Seq < published[shard]):
				t.Errorf("learn event of %x at seq %d, want between its admit (%d) and its shard's publish (%d)",
					digest, ev.Seq, admitted[digest], published[shard])
			}
		}

		abort = true
		recorded := tr.Recorded()
		if _, err := g.RetrainIncremental(context.Background(), delta); err == nil {
			t.Fatal("the aborting hook did not fail the publish")
		}
		for _, ev := range tr.Last(int(tr.Recorded() - recorded)) {
			if ev.Kind == obs.TraceLearn {
				t.Errorf("an aborted publish recorded a learn event for %x", ev.Digest)
			}
		}
	})
}

// countIn counts the members of got that are also in want.
func countIn(got, want map[*tokenize.TokenStream]bool) int {
	n := 0
	for ts := range got {
		if want[ts] {
			n++
		}
	}
	return n
}

func TestGuardedPrePublishErrorAbortsPublish(t *testing.T) {
	// The hook fails on the last replacement: every earlier shard's
	// replacement has passed it, yet no shard may swap.
	forEachSize(t, func(t *testing.T, n int) {
		b, err := engine.Lookup("sbayes")
		if err != nil {
			t.Fatal(err)
		}
		boom := errors.New("refit failed")
		var pres, posts int
		g := newGuard(n, func(int) engine.Classifier { return b.New() }, markerAdmitter{}, engine.GuardedConfig{
			PrePublish: []func(engine.Classifier) error{func(engine.Classifier) error {
				if pres++; pres%n == 0 {
					return boom
				}
				return nil
			}},
			PostPublish: []func(){func() { posts++ }},
		})
		unswapped := func(what string) {
			t.Helper()
			if got := g.Generation(); got != 1 {
				t.Errorf("%s: generation %d after an aborted publish", what, got)
			}
			if posts != 0 {
				t.Errorf("%s: post-publish hook ran after an aborted publish", what)
			}
		}
		next := make([]engine.Classifier, n)
		for i := range next {
			next[i] = b.New()
		}
		gen, err := g.Swap(next...)
		if !errors.Is(err, boom) {
			t.Fatalf("Swap error %v, want the hook error", err)
		}
		if gen != 1 {
			t.Errorf("aborted Swap reported generation %d, want the serving one", gen)
		}
		unswapped("Swap")
		delta := &corpus.Corpus{}
		for i := 0; i < 6; i++ {
			delta.Add(userMsg(fmt.Sprintf("clean %d\n", i), i), true)
		}
		if _, err := g.RetrainIncremental(context.Background(), delta); !errors.Is(err, boom) {
			t.Fatalf("RetrainIncremental error %v, want the hook error", err)
		}
		unswapped("RetrainIncremental")
	})
}

// TestGuardedAdmissionCountersSumAcrossShards: each decision is
// counted on the shard its candidate routes to, and under concurrent
// vetting from many goroutines every Stats() snapshot satisfies
// sum(per-shard admission counters) == combined, with each shard's
// Vetted equal to the sum of its verdict counters — the same invariant
// class the Scored/Classified fix established. Run under -race.
func TestGuardedAdmissionCountersSumAcrossShards(t *testing.T) {
	forEachBackend(t, func(t *testing.T, backend string) {
		forEachSize(t, func(t *testing.T, n int) {
			b, err := engine.Lookup(backend)
			if err != nil {
				t.Fatal(err)
			}
			g := newGuard(n, func(int) engine.Classifier { return b.New() },
				markerAdmitter{}, engine.GuardedConfig{Quarantine: &heldSink{}})

			// Deterministic routing check: one decision, one shard.
			for u := 0; u < 6; u++ {
				m := userMsg("clean\n", u)
				dest := g.Engine().ShardFor(m)
				before := g.Stats()
				g.Vet(context.Background(), m, true)
				after := g.Stats()
				for i := range after.Shards {
					want := before.Shards[i].Admission.Vetted
					if i == dest {
						want++
					}
					if got := after.Shards[i].Admission.Vetted; got != want {
						t.Errorf("user%d: shard %d vetted %d, want %d (destination shard %d)", u, i, got, want, dest)
					}
				}
			}

			const workers, perWorker = 8, 300
			var wg sync.WaitGroup
			stopReader := make(chan struct{})
			readerDone := make(chan struct{})
			go func() {
				defer close(readerDone)
				for {
					st := g.Stats()
					for i, s := range st.Shards {
						if s.Admission.Vetted != s.Admission.Admitted+s.Admission.Quarantined+s.Admission.Rejected {
							t.Errorf("shard %d Vetted %d != verdict sum (%+v)", i, s.Admission.Vetted, s.Admission)
						}
					}
					if sum := sumAdmission(st); sum != st.Admission {
						t.Errorf("sum(per-shard) %+v != combined %+v", sum, st.Admission)
					}
					select {
					case <-stopReader:
						return
					default:
					}
				}
			}()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						body := "clean\n"
						switch i % 3 {
						case 1:
							body = "poison\n"
						case 2:
							body = "odd\n"
						}
						g.Vet(context.Background(), userMsg(body, (w*perWorker+i)%16), true)
					}
				}(w)
			}
			wg.Wait()
			close(stopReader)
			<-readerDone

			st := g.Stats()
			if st.Admission.Vetted != 6+workers*perWorker {
				t.Errorf("combined vetted %d, want %d", st.Admission.Vetted, 6+workers*perWorker)
			}
			// Every shard saw traffic (16 users over the shards).
			for i, s := range st.Shards {
				if s.Admission.Vetted == 0 {
					t.Errorf("shard %d vetted nothing — routing broken", i)
				}
			}
		})
	})
}

// stateAdmitter is markerAdmitter with a durable state blob.
type stateAdmitter struct {
	markerAdmitter
	state string
}

func (a *stateAdmitter) Save(w io.Writer) error {
	_, err := io.WriteString(w, a.state)
	return err
}

func (a *stateAdmitter) Load(r io.Reader) error {
	b, err := io.ReadAll(r)
	a.state = string(b)
	return err
}

func TestSaveGuardedWritesOneRecord(t *testing.T) {
	// Any shard count persists as one file: the record "served" at the
	// one serving generation, holding every shard and the admission
	// state.
	forEachSize(t, func(t *testing.T, n int) {
		dir := t.TempDir()
		st, err := engine.NewDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		b, err := engine.Lookup("sbayes")
		if err != nil {
			t.Fatal(err)
		}
		admit := &stateAdmitter{state: "spent budget"}
		clfs := make([]engine.Classifier, n)
		for i := range clfs {
			clfs[i] = b.New()
		}
		g := engine.NewGuarded(engine.NewSharded(clfs, engine.Config{Name: "served"}), admit, engine.GuardedConfig{})
		// Two publishes that replace only the last shard still move the
		// whole engine to generation 3.
		for i := 0; i < 2; i++ {
			cur, _ := g.Engine().Snapshots()
			next := append([]engine.Classifier(nil), cur...)
			next[n-1] = b.New()
			if _, err := g.Swap(next...); err != nil {
				t.Fatal(err)
			}
		}
		gen, err := engine.SaveGuarded(st, "served", g)
		if err != nil {
			t.Fatal(err)
		}
		if gen != 3 {
			t.Fatalf("SaveGuarded generation %d, want 3", gen)
		}
		if got, err := st.Generations("served"); err != nil || !reflect.DeepEqual(got, []uint64{3}) {
			t.Errorf("record \"served\" holds generations %v (%v), want [3]", got, err)
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 1 {
			t.Errorf("store holds %d files, want the one record", len(files))
		}

		// A restart brings the state back from the same record.
		admit2 := &stateAdmitter{}
		resumed, err := engine.ResumeGuarded(st, "served", n, engine.Config{Name: "served"}, admit2, engine.GuardedConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if resumed.Generation() != 3 || resumed.Stats().Generation != 3 {
			t.Errorf("resumed at generation %d (stats %d), want 3", resumed.Generation(), resumed.Stats().Generation)
		}
		if admit2.state != "spent budget" {
			t.Errorf("resumed admitter state %q, want the saved one", admit2.state)
		}
		if got := resumed.Stats().Shards[0].Name; n == 1 && got != "served" {
			t.Errorf("one-shard resume labels its shard %q, want served", got)
		}
	})
}

// TestGenerationsAgreeAfterPublishAndResume: the engine serves one
// generation across its shards, so after every publish — Swap,
// RetrainIncremental — and every resume, in place or at
// start-up, the guard's Generation, Stats().Generation, every shard's
// Stats entry and every shard's engine_generation gauge report the
// same number, and Retrains is Generation-1 for any shard count.
func TestGenerationsAgreeAfterPublishAndResume(t *testing.T) {
	forEachSize(t, func(t *testing.T, n int) {
		b, err := engine.Lookup("sbayes")
		if err != nil {
			t.Fatal(err)
		}
		fresh := func() []engine.Classifier {
			clfs := make([]engine.Classifier, n)
			for i := range clfs {
				clfs[i] = b.New()
			}
			return clfs
		}
		agree := func(what string, g *engine.Guarded, reg *obs.Registry, want uint64) {
			t.Helper()
			st := g.Stats()
			if g.Generation() != want || st.Generation != want || st.Retrains != want-1 {
				t.Errorf("%s: generation %d, stats generation %d, retrains %d, want %d and %d",
					what, g.Generation(), st.Generation, st.Retrains, want, want-1)
			}
			var text strings.Builder
			if err := reg.WriteText(&text); err != nil {
				t.Fatal(err)
			}
			pm, err := obs.ParseText(strings.NewReader(text.String()))
			if err != nil {
				t.Fatal(err)
			}
			for i, sh := range st.Shards {
				gauge, ok := pm.Value("engine_generation", obs.L("engine", sh.Name))
				if sh.Generation != want || !ok || gauge != float64(want) {
					t.Errorf("%s: shard %d (%s) stats generation %d, gauge %v (found %v), want %d",
						what, i, sh.Name, sh.Generation, gauge, ok, want)
				}
			}
		}
		ctx := context.Background()
		reg := obs.NewRegistry()
		g := engine.NewGuarded(engine.NewSharded(fresh(), engine.Config{Name: "fleet", Obs: reg}), markerAdmitter{}, engine.GuardedConfig{})
		agree("fresh", g, reg, 1)
		if _, err := g.Swap(fresh()...); err != nil {
			t.Fatal(err)
		}
		agree("Swap", g, reg, 2)
		train := &corpus.Corpus{}
		for i := 0; i < 8; i++ {
			train.Add(userMsg(fmt.Sprintf("clean words %d\n", i), i), i%2 == 0)
		}
		if _, err := g.RetrainIncremental(ctx, train); err != nil {
			t.Fatal(err)
		}
		agree("RetrainIncremental", g, reg, 3)
		if _, err := g.RetrainIncremental(ctx, train); err != nil {
			t.Fatal(err)
		}
		agree("second RetrainIncremental", g, reg, 4)

		st := engine.NewMemStore()
		if gen, err := engine.SaveGuarded(st, "fleet", g); err != nil || gen != 4 {
			t.Fatalf("SaveGuarded = (%d, %v), want generation 4", gen, err)
		}
		if _, err := g.Swap(fresh()...); err != nil {
			t.Fatal(err)
		}
		snap, gen, _, err := g.Resume(st, "fleet")
		if err != nil || snap != 4 || gen != 6 {
			t.Fatalf("in-place Resume = (%d, %d, %v), want snapshot 4 published as 6", snap, gen, err)
		}
		agree("in-place Resume", g, reg, 6)

		reg2 := obs.NewRegistry()
		resumed, err := engine.ResumeGuarded(st, "fleet", n, engine.Config{Name: "fleet", Obs: reg2}, markerAdmitter{}, engine.GuardedConfig{})
		if err != nil {
			t.Fatal(err)
		}
		agree("ResumeGuarded", resumed, reg2, 4)
	})
}
