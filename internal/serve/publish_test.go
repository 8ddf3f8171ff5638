package serve_test

// The daemon's publishes against its answers: every verdict names the
// generation that scored it, an admin resume cannot be undone by a
// learn batch that was already in flight, and an admin save cannot
// land while a publish's review has the held mail detached.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/mail"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/tokenize"
)

// genScorer scores every message with the generation it is published
// at, so a response whose score and generation differ was stamped with
// a generation that did not score it.
type genScorer struct {
	engine.Classifier
	gen uint64
}

func (c genScorer) ScoreTokenStream(*tokenize.TokenStream) float64 { return float64(c.gen) }
func (c genScorer) ClassifyTokenStream(*tokenize.TokenStream) (engine.Label, float64) {
	return engine.Spam, float64(c.gen)
}

// TestVerdictsCarryTheGenerationThatScoredThem publishes new
// generations in a tight loop while all four scoring routes answer:
// every response's generation must equal its score.
func TestVerdictsCarryTheGenerationThatScoredThem(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			g := newFleet(t, "sbayes", shards, acceptAll{}, engine.GuardedConfig{})
			bases, _ := g.Engine().Snapshots()
			publish := func() {
				// The test is the fleet's only publisher, so the next
				// generation is the current one plus one.
				gen := g.Generation() + 1
				next := make([]engine.Classifier, len(bases))
				for i, b := range bases {
					next[i] = genScorer{b, gen}
				}
				if got, err := g.Swap(next...); err != nil || got != gen {
					t.Errorf("publish = (%d, %v), want generation %d", got, err, gen)
				}
			}
			publish()
			srv := serve.New(g, serve.Config{})
			defer srv.Close()
			ts := httptest.NewServer(srv)
			defer ts.Close()
			client := ts.Client()

			var stop atomic.Bool
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					publish()
				}
			}()
			defer func() {
				stop.Store(true)
				wg.Wait()
			}()

			gen := testGen(t)
			rng := stats.NewRNG(11)
			msgs := make([]*mail.Message, 64)
			var batch bytes.Buffer
			for i := range msgs {
				msgs[i] = gen.Message(rng, i%2 == 0)
				line, err := json.Marshal(wireMsg(msgs[i]))
				if err != nil {
					t.Fatal(err)
				}
				batch.Write(append(line, '\n'))
			}
			check := func(route string, score float64, generation uint64) {
				t.Helper()
				if score != float64(generation) {
					t.Fatalf("%s: scored by generation %v, stamped %d", route, score, generation)
				}
			}
			for round := 0; round < 40; round++ {
				req := serve.ClassifyRequest{Message: wireMsg(msgs[round])}
				var cr serve.ClassifyResponse
				if code := postJSON(t, client, ts.URL+"/classify", req, &cr); code != http.StatusOK {
					t.Fatalf("classify: status %d", code)
				}
				check("/classify", cr.Score, cr.Generation)
				var sr serve.ScoreResponse
				if code := postJSON(t, client, ts.URL+"/score", req, &sr); code != http.StatusOK {
					t.Fatalf("score: status %d", code)
				}
				check("/score", sr.Score, sr.Generation)
				for _, route := range []string{"/classify/batch", "/score/batch"} {
					code, body := postRaw(t, client, ts.URL+route, batch.Bytes())
					lines := ndjsonLines(t, body)
					if code != http.StatusOK || len(lines) != len(msgs) {
						t.Fatalf("%s: status %d, %d lines for %d messages", route, code, len(lines), len(msgs))
					}
					for _, line := range lines {
						var v serve.ClassifyResponse
						if err := json.Unmarshal([]byte(line), &v); err != nil {
							t.Fatalf("%s: %v", route, err)
						}
						check(route, v.Score, v.Generation)
					}
				}
			}
		})
	}
}

// TestResumeWaitsForInFlightLearnBatch: a learn batch wedged in
// admission has cloned the serving epoch; a resume requested meanwhile
// must publish after that batch, so the daemon ends up serving the
// resumed model, not the batch trained on the epoch the resume
// replaced.
func TestResumeWaitsForInFlightLearnBatch(t *testing.T) {
	w := newWedge()
	store := engine.NewMemStore()
	srv := serve.New(newGuarded(t, "sbayes", w, engine.GuardedConfig{}), serve.Config{Store: store})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	var sv serve.SaveResponse
	if code := postJSON(t, client, ts.URL+"/admin/save", struct{}{}, &sv); code != http.StatusOK {
		t.Fatalf("save: status %d", code)
	}
	marker := &mail.Message{Body: "zqmarker zqvocabulary zqnobody zqtrained\n"}
	score := func() serve.ScoreResponse {
		t.Helper()
		var sr serve.ScoreResponse
		if code := postJSON(t, client, ts.URL+"/score", serve.ClassifyRequest{Message: wireMsg(marker)}, &sr); code != http.StatusOK {
			t.Fatalf("score: status %d", code)
		}
		return sr
	}
	saved := score()

	// Wedge a batch that trains the marker as spam mid-vetting.
	if code := postJSON(t, client, ts.URL+"/learn", serve.LearnRequest{Message: wireMsg(marker), Spam: true}, nil); code != http.StatusAccepted {
		t.Fatalf("learn: status %d", code)
	}
	<-w.entered

	type resumeResult struct {
		code int
		resp serve.ResumeResponse
		err  error
	}
	resumed := make(chan resumeResult, 1)
	go func() {
		var res resumeResult
		resp, err := client.Post(ts.URL+"/admin/resume", "application/json", nil)
		if err != nil {
			res.err = err
		} else {
			res.code = resp.StatusCode
			res.err = json.NewDecoder(resp.Body).Decode(&res.resp)
			resp.Body.Close()
		}
		resumed <- res
	}()
	// Give a resume that does not wait for the batch time to land,
	// then let the batch publish.
	var res resumeResult
	select {
	case res = <-resumed:
		close(w.release)
	case <-time.After(200 * time.Millisecond):
		close(w.release)
		res = <-resumed
	}
	if res.err != nil || res.code != http.StatusOK || res.resp.SnapshotGeneration != sv.Generations[0] {
		t.Fatalf("resume = %d %+v (%v), want 200 from generation %d", res.code, res.resp, res.err, sv.Generations[0])
	}

	var fl serve.FlushResponse
	if code := postJSON(t, client, ts.URL+"/admin/flush", struct{}{}, &fl); code != http.StatusOK {
		t.Fatalf("flush: status %d", code)
	}
	after := score()
	if after.Generation != res.resp.Generation || fl.Generation != res.resp.Generation {
		t.Errorf("serving generation %d (flush %d) after the resume published %d: a batch published over it",
			after.Generation, fl.Generation, res.resp.Generation)
	}
	if after.Score != saved.Score {
		t.Errorf("marker scores %v after the resume, %v in the saved model: the in-flight batch undid the resume", after.Score, saved.Score)
	}
}

// TestSaveWaitsForQuarantineReview: a publish's PostPublish review
// takes the held mail out of the quarantine while it judges it. A save
// that ran then would persist an empty quarantine while the live one
// keeps the mail, and a restart would free it. /admin/save runs on the
// learn loop, so it saves after the review has put the undecided mail
// back.
func TestSaveWaitsForQuarantineReview(t *testing.T) {
	q := admission.NewQuarantine(admission.QuarantineConfig{Capacity: 8, MaxReviews: 10})
	var block atomic.Bool
	judging, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	judge := func(*mail.Message, *tokenize.TokenStream, bool) admission.Decision {
		if block.Load() {
			once.Do(func() { close(judging) })
			<-release
		}
		return admission.Decision{Verdict: admission.Held, Reason: "undecided"}
	}
	gcfg := engine.GuardedConfig{Quarantine: q, PostPublish: []func(){func() { q.Review(judge) }}}
	store := engine.NewMemStore()
	srv := serve.New(newGuarded(t, "sbayes", holdAll{}, gcfg), serve.Config{Store: store, Name: "served"})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()
	g := testGen(t)
	rng := stats.NewRNG(17)
	learn := func() {
		t.Helper()
		if code := postJSON(t, client, ts.URL+"/learn", serve.LearnRequest{Message: wireMsg(g.SpamMessage(rng)), Spam: true}, nil); code != http.StatusAccepted {
			t.Fatalf("learn: status %d", code)
		}
	}

	// The first publish holds one candidate and reviews it undecided.
	learn()
	if code := postJSON(t, client, ts.URL+"/admin/flush", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("flush: status %d", code)
	}
	// The next publish's review blocks in the judge.
	block.Store(true)
	learn()
	flushed := make(chan int, 1)
	go func() {
		resp, err := client.Post(ts.URL+"/admin/flush", "application/json", nil)
		if err != nil {
			flushed <- 0
			return
		}
		resp.Body.Close()
		flushed <- resp.StatusCode
	}()
	select {
	case <-judging:
	case <-time.After(10 * time.Second):
		t.Fatal("the publish never reviewed the held mail")
	}
	saved := make(chan int, 1)
	go func() {
		resp, err := client.Post(ts.URL+"/admin/save", "application/json", nil)
		if err != nil {
			saved <- 0
			return
		}
		resp.Body.Close()
		saved <- resp.StatusCode
	}()
	// Give a save that does not wait for the review time to land, then
	// let the review finish.
	code, done := 0, false
	select {
	case code = <-saved:
		done = true
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	if fl := <-flushed; fl != http.StatusOK {
		t.Fatalf("flush: status %d", fl)
	}
	if !done {
		code = <-saved
	}
	if code != http.StatusOK {
		t.Fatalf("save: status %d", code)
	}

	q2 := admission.NewQuarantine(admission.QuarantineConfig{Capacity: 8})
	if _, err := engine.ResumeGuarded(store, "served", 1, engine.Config{}, holdAll{}, engine.GuardedConfig{Quarantine: q2}); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 2 || q2.Len() != q.Len() {
		t.Fatalf("the save persisted %d held while the live quarantine holds %d, want both 2", q2.Len(), q.Len())
	}
}
