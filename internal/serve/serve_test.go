package serve_test

// End-to-end coverage for the guarded daemon over real HTTP: the
// classify/learn/save/resume round trip against both backends, load
// shedding under a saturated learn path, and the isolation guarantee
// that a wedged admitter can never block scoring.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/mail"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/textgen"
	"repro/internal/tokenize"

	_ "repro/internal/graham"
	_ "repro/internal/sbayes"
)

var backends = []string{"sbayes", "graham"}

func testGen(t testing.TB) *textgen.Generator {
	t.Helper()
	u := textgen.MustUniverse(textgen.SmallUniverseConfig())
	return textgen.MustNew(u, textgen.DefaultConfig())
}

// newFleet builds a bootstrapped guarded fleet of shards engines over
// the given admitter, each shard trained on its partition of one
// bootstrap corpus, as sbserved bootstraps; the test trains the
// fixtures directly (tests are the sanctioned setup path).
func newFleet(t *testing.T, backend string, shards int, admit engine.Admitter, gcfg engine.GuardedConfig) *engine.Guarded {
	t.Helper()
	b, err := engine.Lookup(backend)
	if err != nil {
		t.Fatal(err)
	}
	parts := engine.PartitionByKey(testGen(t).Corpus(stats.NewRNG(7), 60, 60), shards, engine.RecipientKey)
	clfs := make([]engine.Classifier, shards)
	for i := range clfs {
		clfs[i] = b.New()
		for _, ex := range parts[i].Examples {
			clfs[i].Learn(ex.Msg, ex.Spam)
		}
	}
	return engine.NewGuarded(engine.NewSharded(clfs, engine.Config{Name: "served"}), admit, gcfg)
}

// newGuarded builds a bootstrapped one-engine guard over the given
// admitter — the default daemon's shape.
func newGuarded(t *testing.T, backend string, admit engine.Admitter, gcfg engine.GuardedConfig) *engine.Guarded {
	t.Helper()
	return newFleet(t, backend, 1, admit, gcfg)
}

// acceptAll admits everything — the permissive policy for round-trip
// tests that exercise the HTTP plumbing, not the vetting.
type acceptAll struct{}

func (acceptAll) Name() string { return "accept-all" }
func (acceptAll) Admit(context.Context, *mail.Message, *tokenize.TokenStream, bool) engine.AdmitDecision {
	return engine.AdmitDecision{Verdict: engine.AdmitAccept}
}

// holdAll quarantines everything — for the held-mail persistence
// round trip.
type holdAll struct{}

func (holdAll) Name() string { return "hold-all" }
func (holdAll) Admit(context.Context, *mail.Message, *tokenize.TokenStream, bool) engine.AdmitDecision {
	return engine.AdmitDecision{Verdict: engine.AdmitQuarantine, Reason: "hold-all"}
}

// wedge blocks every Admit call until released — the stuck-training
// path fixture. It honors ctx so server shutdown stays prompt.
type wedge struct {
	enteredOnce sync.Once
	entered     chan struct{}
	release     chan struct{}
}

func newWedge() *wedge {
	return &wedge{entered: make(chan struct{}), release: make(chan struct{})}
}

func (w *wedge) Name() string { return "wedge" }
func (w *wedge) Admit(ctx context.Context, _ *mail.Message, _ *tokenize.TokenStream, _ bool) engine.AdmitDecision {
	w.enteredOnce.Do(func() { close(w.entered) })
	select {
	case <-w.release:
		return engine.AdmitDecision{Verdict: engine.AdmitAccept}
	case <-ctx.Done():
		return engine.AdmitDecision{Verdict: engine.AdmitReject, Reason: "cancelled"}
	}
}

// postJSON posts v and decodes the response body into out (when
// non-nil), returning the status code.
func postJSON(t *testing.T, client *http.Client, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func wireMsg(m *mail.Message) serve.WireMessage { return serve.WireFromMail(m) }

// TestServeRoundTrip drives the full daemon surface against both
// backends: single and batch scoring, learn-flush-publish, snapshot
// save, and in-place resume.
func TestServeRoundTrip(t *testing.T) {
	for _, backend := range backends {
		t.Run(backend, func(t *testing.T) {
			store := engine.NewMemStore()
			chain := admission.NewChain(admission.NewTokenFloodGate(admission.FloodGateConfig{MaxDistinct: 5000}))
			guarded := newGuarded(t, backend, chain, engine.GuardedConfig{})
			srv := serve.New(guarded, serve.Config{
				Store: store, Name: "e2e",
			})
			defer srv.Close()
			ts := httptest.NewServer(srv)
			defer ts.Close()
			client := ts.Client()
			g := testGen(t)
			rng := stats.NewRNG(21)

			// Single classify and score.
			var cls serve.ClassifyResponse
			if code := postJSON(t, client, ts.URL+"/classify", serve.ClassifyRequest{Message: wireMsg(g.SpamMessage(rng))}, &cls); code != http.StatusOK {
				t.Fatalf("classify: status %d", code)
			}
			if cls.Label == "" || cls.Generation != 1 {
				t.Fatalf("classify response %+v", cls)
			}
			var sc serve.ScoreResponse
			if code := postJSON(t, client, ts.URL+"/score", serve.ClassifyRequest{Message: wireMsg(g.HamMessage(rng))}, &sc); code != http.StatusOK {
				t.Fatalf("score: status %d", code)
			}

			// NDJSON batch: 5 in, 5 verdicts out, in order.
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			for i := 0; i < 5; i++ {
				enc.Encode(wireMsg(g.Message(rng, i%2 == 0)))
			}
			resp, err := client.Post(ts.URL+"/classify/batch", "application/x-ndjson", &buf)
			if err != nil {
				t.Fatal(err)
			}
			var lines []serve.ClassifyResponse
			scanner := bufio.NewScanner(resp.Body)
			for scanner.Scan() {
				if len(bytes.TrimSpace(scanner.Bytes())) == 0 {
					continue
				}
				var r serve.ClassifyResponse
				if err := json.Unmarshal(scanner.Bytes(), &r); err != nil {
					t.Fatalf("batch line %q: %v", scanner.Text(), err)
				}
				lines = append(lines, r)
			}
			resp.Body.Close()
			if len(lines) != 5 {
				t.Fatalf("batch returned %d lines, want 5", len(lines))
			}

			// Learn, then flush: the submission publishes a generation.
			var lr serve.LearnResponse
			if code := postJSON(t, client, ts.URL+"/learn", serve.LearnRequest{Message: wireMsg(g.SpamMessage(rng)), Spam: true}, &lr); code != http.StatusAccepted {
				t.Fatalf("learn: status %d", code)
			}
			var fl serve.FlushResponse
			if code := postJSON(t, client, ts.URL+"/admin/flush", struct{}{}, &fl); code != http.StatusOK {
				t.Fatalf("flush: status %d", code)
			}
			if fl.Generation < 2 {
				t.Fatalf("flush did not publish: %+v", fl)
			}

			// Save, train past it, resume: serving rolls back to the
			// saved snapshot's state under a new generation.
			var sv serve.SaveResponse
			if code := postJSON(t, client, ts.URL+"/admin/save", struct{}{}, &sv); code != http.StatusOK {
				t.Fatalf("save: status %d", code)
			}
			if len(sv.Generations) != 1 {
				t.Fatalf("save generations %v", sv.Generations)
			}
			postJSON(t, client, ts.URL+"/learn", serve.LearnRequest{Message: wireMsg(g.SpamMessage(rng)), Spam: true}, nil)
			postJSON(t, client, ts.URL+"/admin/flush", struct{}{}, &fl)
			var rs serve.ResumeResponse
			if code := postJSON(t, client, ts.URL+"/admin/resume", struct{}{}, &rs); code != http.StatusOK {
				t.Fatalf("resume: status %d", code)
			}
			if rs.SnapshotGeneration != sv.Generations[0] {
				t.Fatalf("resumed snapshot generation %d, want %d", rs.SnapshotGeneration, sv.Generations[0])
			}
			if rs.Generation <= fl.Generation {
				t.Fatalf("resume did not publish a new generation: %+v after flush %+v", rs, fl)
			}

			st := srv.Stats()
			if st.Classified < 6 || st.Trained < 2 || st.Publishes < 2 {
				t.Fatalf("stats do not reflect the round trip: %+v", st)
			}
		})
	}
}

// TestQuarantineSurvivesDaemonSaveResume is the crash-amnesty fix
// seen from the network, for a single engine and a three-shard fleet:
// the mail the daemon's quarantine holds and the probe budget its RONI
// link spent are saved with the snapshot, and come back both in a
// fresh daemon resumed in place over the same store and in a guard
// restarted through ResumeGuarded, as sbserved does at startup.
func TestQuarantineSurvivesDaemonSaveResume(t *testing.T) {
	g := testGen(t)
	b, err := engine.Lookup("sbayes")
	if err != nil {
		t.Fatal(err)
	}
	calib := g.Corpus(stats.NewRNG(3), 40, 40)
	// wire builds the admission pipeline as a process start does: a
	// one-probe RONI budget, then hold-all, into an empty quarantine.
	wire := func(t *testing.T) (*admission.Chain, *admission.IncrementalRONI, *admission.Quarantine) {
		roni, err := admission.NewIncrementalRONI(
			admission.IncrementalRONIConfig{BudgetPerMessage: 0.01, Burst: 1}, calib, b.New, stats.NewRNG(9))
		if err != nil {
			t.Fatal(err)
		}
		return admission.NewChain(roni, holdAll{}), roni, admission.NewQuarantine(admission.QuarantineConfig{Capacity: 16})
	}
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			store := engine.NewMemStore()
			scfg := serve.Config{Store: store, Name: "amnesty"}
			chain, roni, q := wire(t)
			srv := serve.New(newFleet(t, "sbayes", shards, chain, engine.GuardedConfig{Quarantine: q}), scfg)
			ts := httptest.NewServer(srv)
			client := ts.Client()
			rng := stats.NewRNG(5)

			for i := 0; i < 4; i++ {
				m := g.SpamMessage(rng)
				m.Header.Set("Subject", fmt.Sprintf("held-%d", i))
				m.Header.Set("To", fmt.Sprintf("user%d@corp.example", i))
				if code := postJSON(t, client, ts.URL+"/learn", serve.LearnRequest{Message: wireMsg(m), Spam: true}, nil); code != http.StatusAccepted {
					t.Fatalf("learn %d: status %d", i, code)
				}
			}
			var fl serve.FlushResponse
			if code := postJSON(t, client, ts.URL+"/admin/flush", struct{}{}, &fl); code != http.StatusOK {
				t.Fatalf("flush: status %d", code)
			}
			held := heldSubjects(q)
			if len(held) < 3 {
				t.Fatalf("quarantine holds %v, want at least the 3 candidates past the budget", held)
			}
			budget := roni.Stats()
			var sv serve.SaveResponse
			if code := postJSON(t, client, ts.URL+"/admin/save", struct{}{}, &sv); code != http.StatusOK {
				t.Fatal("save failed")
			}
			if len(sv.Generations) != shards {
				t.Fatalf("save reported generations %v for %d shards", sv.Generations, shards)
			}
			ts.Close()
			srv.Close()

			survived := func(how string, q *admission.Quarantine, roni *admission.IncrementalRONI) {
				t.Helper()
				if got := heldSubjects(q); !reflect.DeepEqual(got, held) {
					t.Errorf("%s amnestied the quarantine: holds %v, want %v", how, got, held)
				}
				if got := roni.Stats(); got != budget {
					t.Errorf("%s refilled the probe budget: %+v, want %+v", how, got, budget)
				}
			}

			// The "crashed" daemon: fresh guard, fresh (empty)
			// quarantine, same store. An in-place resume brings the held
			// mail and the spent budget back.
			chain2, roni2, q2 := wire(t)
			srv2 := serve.New(newFleet(t, "sbayes", shards, chain2, engine.GuardedConfig{Quarantine: q2}), scfg)
			defer srv2.Close()
			ts2 := httptest.NewServer(srv2)
			defer ts2.Close()
			var rs serve.ResumeResponse
			if code := postJSON(t, ts2.Client(), ts2.URL+"/admin/resume", struct{}{}, &rs); code != http.StatusOK {
				t.Fatalf("resume: status %d (%+v)", code, rs)
			}
			if !rs.AdmissionLoaded {
				t.Fatal("resume did not load the saved admission state")
			}
			if rs.SnapshotGeneration != slices.Max(sv.Generations) {
				t.Errorf("resumed snapshot generation %d, saved %v", rs.SnapshotGeneration, sv.Generations)
			}
			survived("in-place resume", q2, roni2)

			// The restart sbserved performs: the guard is rebuilt from the
			// store before the daemon starts serving.
			chain3, roni3, q3 := wire(t)
			resumed, err := engine.ResumeGuarded(store, "amnesty", shards, engine.Config{Name: "amnesty"}, chain3, engine.GuardedConfig{Quarantine: q3})
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Generation() != sv.Generations[0] || resumed.Engine().NumShards() != shards {
				t.Errorf("restart resumed generation %d over %d shards, saved %v", resumed.Generation(), resumed.Engine().NumShards(), sv.Generations)
			}
			survived("restart", q3, roni3)
		})
	}
}

// TestSavePrunesToTheTwoNewestRecords: every POST /admin/save prunes
// the store to its two newest records, and a store resumed from the
// version-1 layout loses the admission sidecars no kept record needs
// while it still resumes, held mail included.
func TestSavePrunesToTheTwoNewestRecords(t *testing.T) {
	gen := testGen(t)
	rng := stats.NewRNG(17)
	// saveAfterPublish trains one message through the learn loop (a
	// new generation), then saves over HTTP.
	saveAfterPublish := func(t *testing.T, url string, client *http.Client) uint64 {
		t.Helper()
		if code := postJSON(t, client, url+"/learn", serve.LearnRequest{Message: wireMsg(gen.HamMessage(rng))}, nil); code != http.StatusAccepted {
			t.Fatalf("learn: status %d", code)
		}
		if code := postJSON(t, client, url+"/admin/flush", struct{}{}, nil); code != http.StatusOK {
			t.Fatalf("flush: status %d", code)
		}
		var sv serve.SaveResponse
		if code := postJSON(t, client, url+"/admin/save", struct{}{}, &sv); code != http.StatusOK {
			t.Fatalf("save: status %d", code)
		}
		return sv.Generations[0]
	}
	chain := func() *admission.Chain {
		return admission.NewChain(admission.NewTokenFloodGate(admission.FloodGateConfig{MaxDistinct: 2000}))
	}

	t.Run("four saves", func(t *testing.T) {
		store, err := engine.NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		srv := serve.New(newGuarded(t, "sbayes", chain(), engine.GuardedConfig{}), serve.Config{Store: store, Name: "served"})
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		var saved []uint64
		for i := 0; i < 4; i++ {
			saved = append(saved, saveAfterPublish(t, ts.URL, ts.Client()))
		}
		if got, err := store.Generations("served"); err != nil || !slices.Equal(got, saved[2:]) {
			t.Errorf("after saves at %v the store holds %v (%v), want the newest two", saved, got, err)
		}
	})

	t.Run("store_v1 fixture", func(t *testing.T) {
		dir := t.TempDir()
		fixture := filepath.Join("..", "engine", "testdata", "store_v1")
		entries, err := os.ReadDir(fixture)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(fixture, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		store, err := engine.NewDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		resume := func() (*engine.Guarded, *admission.Quarantine) {
			t.Helper()
			q := admission.NewQuarantine(admission.QuarantineConfig{Capacity: 4})
			g, err := engine.ResumeGuarded(store, "served", 1, engine.Config{Name: "served"}, chain(), engine.GuardedConfig{Quarantine: q})
			if err != nil {
				t.Fatal(err)
			}
			return g, q
		}
		g, _ := resume()
		srv := serve.New(g, serve.Config{Store: store, Name: "served"})
		ts := httptest.NewServer(srv)
		for i := 0; i < 2; i++ {
			saveAfterPublish(t, ts.URL, ts.Client())
		}
		ts.Close()
		srv.Close()
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, f := range files {
			names = append(names, f.Name())
			if strings.HasPrefix(f.Name(), "served.admission.") {
				t.Errorf("two saves over the version-1 store left the sidecar %s", f.Name())
			}
		}
		if len(names) != 2 {
			t.Errorf("the store holds %v, want the two records", names)
		}
		resumed, q := resume()
		if held := q.Pending(); resumed.Generation() != 4 || len(held) != 1 || held[0].Msg.Body != "held until review\n" {
			t.Errorf("resumed generation %d holding %d candidates, want generation 4 still holding the fixture's one", resumed.Generation(), len(held))
		}
	})
}

// heldSubjects lists the quarantine's pending subjects, sorted.
func heldSubjects(q *admission.Quarantine) []string {
	var out []string
	for _, h := range q.Pending() {
		out = append(out, h.Msg.Subject())
	}
	slices.Sort(out)
	return out
}

// TestLearnShedsWhileClassifyFlows proves the load-shedding contract
// under -race: with the learn consumer wedged inside an admitter and
// the queue full, learn submissions shed with 503 + Retry-After while
// concurrent classifies all succeed.
func TestLearnShedsWhileClassifyFlows(t *testing.T) {
	w := newWedge()
	guarded := newGuarded(t, "sbayes", w, engine.GuardedConfig{})
	srv := serve.New(guarded, serve.Config{LearnQueue: 2, RetryAfter: 7 * time.Second})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	g := testGen(t)
	rng := stats.NewRNG(3)

	learn := func() *http.Response {
		body, _ := json.Marshal(serve.LearnRequest{Message: wireMsg(g.SpamMessage(rng)), Spam: true})
		resp, err := client.Post(ts.URL+"/learn", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// The first submission reaches the admitter and wedges the
	// consumer; once wedged, the queue (cap 2) fills deterministically.
	if resp := learn(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("learn 1: status %d", resp.StatusCode)
	}
	select {
	case <-w.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("consumer never reached the admitter")
	}
	for i := 0; i < 2; i++ {
		if resp := learn(); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("queued learn %d: status %d", i, resp.StatusCode)
		}
	}
	shed := learn()
	if shed.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated learn: status %d, want 503", shed.StatusCode)
	}
	if ra := shed.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After %q, want %q", ra, "7")
	}

	// Meanwhile classification proceeds at full speed from many
	// goroutines — the wedged training path cannot block a verdict.
	var wg sync.WaitGroup
	errs := make(chan error, 8*5)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := stats.NewRNG(uint64(100 + i))
			for j := 0; j < 5; j++ {
				body, _ := json.Marshal(serve.ClassifyRequest{Message: wireMsg(g.Message(r, j%2 == 0))})
				resp, err := client.Post(ts.URL+"/classify", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("classify under wedge: status %d", resp.StatusCode)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := srv.Stats()
	if st.LearnShed == 0 {
		t.Fatalf("no shed recorded: %+v", st)
	}
	if st.Classified != 40 {
		t.Fatalf("classified %d under wedge, want 40", st.Classified)
	}

	// Release the wedge and flush: everything queued trains through.
	close(w.release)
	var fl serve.FlushResponse
	if code := postJSON(t, client, ts.URL+"/admin/flush", struct{}{}, &fl); code != http.StatusOK {
		t.Fatalf("flush after release: status %d", code)
	}
	if got := srv.Stats().Trained; got != 3 {
		t.Fatalf("trained %d after release, want 3", got)
	}
}

// TestWedgedAdmitterNeverBlocksScoreEndpoints pins the isolation the
// other direction: with the consumer wedged, the score and batch
// endpoints answer promptly (the inflight semaphore is scoring's own;
// the learn path holds no scoring resources).
func TestWedgedAdmitterNeverBlocksScoreEndpoints(t *testing.T) {
	w := newWedge()
	guarded := newGuarded(t, "graham", w, engine.GuardedConfig{})
	srv := serve.New(guarded, serve.Config{LearnQueue: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	g := testGen(t)
	rng := stats.NewRNG(9)

	postJSON(t, client, ts.URL+"/learn", serve.LearnRequest{Message: wireMsg(g.SpamMessage(rng)), Spam: true}, nil)
	select {
	case <-w.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("consumer never reached the admitter")
	}
	defer close(w.release)

	done := make(chan struct{})
	go func() {
		defer close(done)
		var sc serve.ScoreResponse
		if code := postJSON(t, client, ts.URL+"/score", serve.ClassifyRequest{Message: wireMsg(g.HamMessage(rng))}, &sc); code != http.StatusOK {
			t.Errorf("score under wedge: status %d", code)
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i := 0; i < 3; i++ {
			enc.Encode(wireMsg(g.Message(rng, true)))
		}
		resp, err := client.Post(ts.URL+"/score/batch", "application/x-ndjson", &buf)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		scanner := bufio.NewScanner(resp.Body)
		n := 0
		for scanner.Scan() {
			if strings.TrimSpace(scanner.Text()) != "" {
				n++
			}
		}
		if n != 3 {
			t.Errorf("score/batch under wedge: %d lines, want 3", n)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("scoring blocked behind a wedged admitter")
	}
}

// TestFlushTimesOutUnderWedgeInsteadOfHanging: a flush against a
// wedged consumer answers 503 when its request context expires,
// instead of wedging the operator too.
func TestFlushTimesOutUnderWedgeInsteadOfHanging(t *testing.T) {
	w := newWedge()
	guarded := newGuarded(t, "sbayes", w, engine.GuardedConfig{})
	srv := serve.New(guarded, serve.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	g := testGen(t)
	rng := stats.NewRNG(13)

	postJSON(t, client, ts.URL+"/learn", serve.LearnRequest{Message: wireMsg(g.SpamMessage(rng)), Spam: true}, nil)
	select {
	case <-w.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("consumer never reached the admitter")
	}
	defer close(w.release)

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/admin/flush", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("flush under wedge: status %d, want 503", resp.StatusCode)
		}
		return
	}
	// A client-side context error is also acceptable: the point is the
	// caller gets unblocked, not the exact error surface.
	if !strings.Contains(err.Error(), "context deadline exceeded") {
		t.Fatal(err)
	}
}

// TestLearnVetsThroughAdmission pins that the learn path actually
// vets: a flood-gate chain rejects a dictionary-style flood while an
// organic example trains, and the engine's admission counters say so.
func TestLearnVetsThroughAdmission(t *testing.T) {
	chain := admission.NewChain(admission.NewTokenFloodGate(admission.FloodGateConfig{MaxDistinct: 50}))
	guarded := newGuarded(t, "sbayes", chain, engine.GuardedConfig{})
	srv := serve.New(guarded, serve.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	g := testGen(t)
	rng := stats.NewRNG(17)

	// A flood: far more distinct tokens than the gate allows.
	words := make([]string, 400)
	for i := range words {
		words[i] = fmt.Sprintf("floodtoken%03d", i)
	}
	flood := &mail.Message{Body: strings.Join(words, " ")}
	postJSON(t, client, ts.URL+"/learn", serve.LearnRequest{Message: wireMsg(flood), Spam: true}, nil)
	postJSON(t, client, ts.URL+"/learn", serve.LearnRequest{Message: wireMsg(g.SpamMessage(rng)), Spam: true}, nil)
	var fl serve.FlushResponse
	if code := postJSON(t, client, ts.URL+"/admin/flush", struct{}{}, &fl); code != http.StatusOK {
		t.Fatalf("flush: status %d", code)
	}

	adm := guarded.Stats().Admission
	if adm.Rejected != 1 || adm.Admitted != 1 {
		t.Fatalf("admission did not vet the learn path: %+v", adm)
	}
}

// TestShardedServeRoundTrip drives the fleet mode: batch scoring
// routes across shards, learns partition to their shards, and save
// persists one record of every shard.
func TestShardedServeRoundTrip(t *testing.T) {
	b, err := engine.Lookup("sbayes")
	if err != nil {
		t.Fatal(err)
	}
	g := testGen(t)
	rng := stats.NewRNG(11)
	boot := g.Corpus(rng, 80, 80)
	const shards = 3
	parts := engine.PartitionByKey(boot, shards, engine.RecipientKey)
	clfs := make([]engine.Classifier, shards)
	for i := range clfs {
		clf := b.New()
		for _, ex := range parts[i].Examples {
			clf.Learn(ex.Msg, ex.Spam)
		}
		clfs[i] = clf
	}
	sh := engine.NewSharded(clfs, engine.Config{Name: "fleet"})
	chain := admission.NewChain(admission.NewTokenFloodGate(admission.FloodGateConfig{MaxDistinct: 5000}))
	gsh := engine.NewGuarded(sh, chain, engine.GuardedConfig{})
	store := engine.NewMemStore()
	srv := serve.New(gsh, serve.Config{Store: store, Name: "fleet"})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	var cls serve.ClassifyResponse
	if code := postJSON(t, client, ts.URL+"/classify", serve.ClassifyRequest{Message: wireMsg(g.SpamMessage(rng))}, &cls); code != http.StatusOK {
		t.Fatalf("classify: status %d", code)
	}
	if code := postJSON(t, client, ts.URL+"/learn", serve.LearnRequest{Message: wireMsg(g.SpamMessage(rng)), Spam: true}, nil); code != http.StatusAccepted {
		t.Fatal("learn not accepted")
	}
	var fl serve.FlushResponse
	if code := postJSON(t, client, ts.URL+"/admin/flush", struct{}{}, &fl); code != http.StatusOK {
		t.Fatalf("flush: status %d", code)
	}
	if fl.Generation < 2 {
		t.Fatalf("fleet flush did not publish: %+v", fl)
	}
	var sv serve.SaveResponse
	if code := postJSON(t, client, ts.URL+"/admin/save", struct{}{}, &sv); code != http.StatusOK {
		t.Fatalf("save: status %d", code)
	}
	if len(sv.Generations) != shards {
		t.Fatalf("saved %d shard generations, want %d", len(sv.Generations), shards)
	}
	for i, gen := range sv.Generations {
		if gen != fl.Generation {
			t.Errorf("shard %d saved at generation %d, the fleet serves %d", i, gen, fl.Generation)
		}
	}
	// A fleet resumes in place: every shard of the record is published
	// as one new fleet generation.
	var rs serve.ResumeResponse
	if code := postJSON(t, client, ts.URL+"/admin/resume", struct{}{}, &rs); code != http.StatusOK {
		t.Fatalf("fleet in-place resume: status %d", code)
	}
	if rs.SnapshotGeneration != slices.Max(sv.Generations) || rs.Generation <= fl.Generation {
		t.Fatalf("fleet resume %+v after save %v and flush %+v", rs, sv.Generations, fl)
	}
	for i, st := range sh.Stats().Shards {
		if got, want := st.Generation, fl.Generation+1; got != want {
			t.Errorf("shard %d serves generation %d after the resume, want %d", i, got, want)
		}
	}

	// The persisted record resumes into a working fleet.
	resumed, _, err := engine.ResumeEngine(store, "fleet", shards, engine.Config{Name: "fleet"})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Generation() != fl.Generation {
		t.Fatalf("fleet resumed at generation %d, saved %d", resumed.Generation(), fl.Generation)
	}
	if got := resumed.Classify(g.HamMessage(rng)); got.Label.String() == "" {
		t.Fatal("resumed fleet cannot classify")
	}
}

// TestResumeFallsBackPastUnloadableShardLine pins that /admin/resume
// runs the start-up resume: when the newest record decodes but one
// shard's payload does not load, the fleet resumes in place at the
// previous record, admission state included — 200, one generation on
// every shard — instead of failing the request or serving that shard
// older than its peers.
func TestResumeFallsBackPastUnloadableShardLine(t *testing.T) {
	const shards = 3
	chain := admission.NewChain(admission.NewTokenFloodGate(admission.FloodGateConfig{MaxDistinct: 5000}))
	g := newFleet(t, "sbayes", shards, chain, engine.GuardedConfig{})
	store := engine.NewMemStore()
	srv := serve.New(g, serve.Config{Store: store, Name: "fleet"})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	gen := testGen(t)
	rng := stats.NewRNG(13)

	save := func() uint64 {
		var sv serve.SaveResponse
		if code := postJSON(t, client, ts.URL+"/admin/save", struct{}{}, &sv); code != http.StatusOK {
			t.Fatalf("save: status %d", code)
		}
		return sv.Generations[0]
	}
	first := save()
	if code := postJSON(t, client, ts.URL+"/learn", serve.LearnRequest{Message: wireMsg(gen.SpamMessage(rng)), Spam: true}, nil); code != http.StatusAccepted {
		t.Fatal("learn not accepted")
	}
	if code := postJSON(t, client, ts.URL+"/admin/flush", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("flush: status %d", code)
	}
	second := save()
	if second <= first {
		t.Fatalf("second save at generation %d after %d", second, first)
	}
	// A well-formed record whose shard 1 the backend cannot load.
	bad, err := engine.LatestEnvelope(store, "fleet")
	if err != nil || bad.Generation != second {
		t.Fatalf("newest record at generation %d (%v), want %d", bad.Generation, err, second)
	}
	bad.Shards[1] = []byte("not a database")
	if err := store.Write("fleet", second, bad.Encode()); err != nil {
		t.Fatal(err)
	}

	var rs serve.ResumeResponse
	if code := postJSON(t, client, ts.URL+"/admin/resume", struct{}{}, &rs); code != http.StatusOK {
		t.Fatalf("resume past an unloadable shard line: status %d", code)
	}
	if rs.SnapshotGeneration != first || !rs.AdmissionLoaded {
		t.Errorf("resumed %+v, want snapshot generation %d with its admission state", rs, first)
	}
	for i, sh := range g.Stats().Shards {
		if sh.Generation != rs.Generation {
			t.Errorf("shard %d serves generation %d after the resume, the fleet %d", i, sh.Generation, rs.Generation)
		}
	}
}
