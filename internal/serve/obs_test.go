package serve_test

// Observability coverage for the daemon: the metrics and trace
// surfaces stay consistent while classify, learn, and shed traffic
// hammers the server, and /healthz flips to 503 exactly while the
// learn path is saturated and actively shedding.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stats"
)

// newObsGuarded builds a bootstrapped guarded engine instrumented
// into the given registry and tracer.
func newObsGuarded(t *testing.T, admit engine.Admitter, reg *obs.Registry, tracer *obs.Tracer) *engine.Guarded {
	t.Helper()
	b, err := engine.Lookup("sbayes")
	if err != nil {
		t.Fatal(err)
	}
	g := testGen(t)
	rng := stats.NewRNG(7)
	clf := b.New()
	for _, ex := range g.Corpus(rng, 60, 60).Examples {
		clf.Learn(ex.Msg, ex.Spam)
	}
	ecfg := engine.Config{Name: "served", Obs: reg, Trace: tracer}
	return engine.NewGuarded(engine.New(clf, ecfg), admit, engine.GuardedConfig{})
}

// scrape fetches and parses /metrics; any 200 body that fails to
// parse or validate is a test failure.
func scrape(t *testing.T, client *http.Client, base string) *obs.ParsedMetrics {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); !strings.Contains(got, "version=0.0.4") {
		t.Fatalf("/metrics content type %q lacks exposition version", got)
	}
	pm, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	return pm
}

// TestMetricsAndTraceUnderConcurrentLoad hammers classify and learn
// (with a queue small enough to shed) from several goroutines while
// other goroutines continuously scrape /metrics and replay /trace.
// Every scrape must parse and every histogram must validate (buckets
// cumulative-monotone, +Inf bucket equal to the count) mid-flight —
// the lock-free instruments may be scraped torn, but never invalid —
// and after quiescing, the per-route request counters must agree with
// both the route latency histograms and the client's own tally.
func TestMetricsAndTraceUnderConcurrentLoad(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(256, 1)
	guarded := newObsGuarded(t, acceptAll{}, reg, tracer)
	srv := serve.New(guarded, serve.Config{
		LearnQueue: 4,
		RetryAfter: 50 * time.Millisecond,
		Obs:        reg,
		Trace:      tracer,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	g := testGen(t)
	const (
		classifyWorkers = 4
		learnWorkers    = 2
		perWorker       = 60
	)
	var traffic, scrapers sync.WaitGroup
	stop := make(chan struct{})

	// Scrape loop: every exposition must parse, and the classify-route
	// histogram must validate even while its buckets move underneath.
	scrapers.Add(1)
	go func() {
		defer scrapers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			pm := scrape(t, ts.Client(), ts.URL)
			if _, err := pm.Histogram("serve_request_seconds", obs.L("route", "classify")); err != nil {
				t.Errorf("mid-flight classify histogram invalid: %v", err)
				return
			}
		}
	}()

	// Trace loop: every line of every replay must decode as a
	// TraceEvent; sampling on the hot path must never block on this.
	scrapers.Add(1)
	go func() {
		defer scrapers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := ts.Client().Get(ts.URL + "/trace?n=64")
			if err != nil {
				t.Error(err)
				return
			}
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				if len(bytes.TrimSpace(sc.Bytes())) == 0 {
					continue
				}
				var ev obs.TraceEvent
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
					t.Errorf("trace line does not decode: %v", err)
				}
			}
			resp.Body.Close()
		}
	}()

	for w := 0; w < classifyWorkers; w++ {
		traffic.Add(1)
		go func(w int) {
			defer traffic.Done()
			rng := stats.NewRNG(100 + uint64(w))
			for i := 0; i < perWorker; i++ {
				msg := g.Message(rng, rng.Bernoulli(0.5))
				status := postJSON(t, ts.Client(), ts.URL+"/classify", serve.ClassifyRequest{Message: wireMsg(msg)}, nil)
				if status != http.StatusOK {
					t.Errorf("classify status %d", status)
				}
			}
		}(w)
	}
	shed := make([]int, learnWorkers)
	for w := 0; w < learnWorkers; w++ {
		traffic.Add(1)
		go func(w int) {
			defer traffic.Done()
			rng := stats.NewRNG(200 + uint64(w))
			for i := 0; i < perWorker; i++ {
				spam := rng.Bernoulli(0.5)
				req := serve.LearnRequest{Message: wireMsg(g.Message(rng, spam)), Spam: spam}
				switch status := postJSON(t, ts.Client(), ts.URL+"/learn", req, nil); status {
				case http.StatusAccepted:
				case http.StatusServiceUnavailable:
					shed[w]++
				default:
					t.Errorf("learn status %d", status)
				}
			}
		}(w)
	}

	// Quiesce: traffic first, then release the scrape loops.
	traffic.Wait()
	close(stop)
	scrapers.Wait()

	// Post-quiesce accounting: requests_total summed over status
	// classes must equal the latency histogram's count for the same
	// route, and both must equal what the clients sent.
	pm := scrape(t, ts.Client(), ts.URL)
	for _, route := range []struct {
		name string
		want uint64
	}{
		{"classify", classifyWorkers * perWorker},
		{"learn", learnWorkers * perWorker},
	} {
		var total float64
		for _, code := range []string{"2xx", "4xx", "5xx"} {
			v, ok := pm.Value("serve_requests_total", obs.L("route", route.name), obs.L("code", code))
			if ok {
				total += v
			}
		}
		if uint64(total) != route.want {
			t.Errorf("serve_requests_total{route=%q} = %v, want %d", route.name, total, route.want)
		}
		h, err := pm.Histogram("serve_request_seconds", obs.L("route", route.name))
		if err != nil {
			t.Fatalf("final %s histogram: %v", route.name, err)
		}
		if h.Count != route.want {
			t.Errorf("serve_request_seconds{route=%q} count = %d, want %d", route.name, h.Count, route.want)
		}
	}

	// The shed tallies agree end to end: client-observed 503s,
	// serve_learn_shed_total, and /stats.
	totalShed := 0
	for _, n := range shed {
		totalShed += n
	}
	if v, ok := pm.Value("serve_learn_shed_total"); !ok || uint64(v) != uint64(totalShed) {
		t.Errorf("serve_learn_shed_total = %v (present=%v), clients saw %d sheds", v, ok, totalShed)
	}
	if st := srv.Stats(); st.LearnShed != uint64(totalShed) {
		t.Errorf("Stats().LearnShed = %d, clients saw %d", st.LearnShed, totalShed)
	}

	// The tracer sampled every classify (every=1): the ring holds
	// decodable events and recorded at least as many as it can hold.
	if tracer.Recorded() == 0 {
		t.Error("tracer recorded nothing under every=1 sampling")
	}
}

// TestHealthzReadinessFlipsUnderSustainedShed proves /healthz is the
// degraded-mode signal: 200 on a healthy daemon, 503 with status
// "degraded" while the learn queue is full and actively shedding, and
// back to 200 once the shed is no longer recent — even if the queue
// stays full — because a load balancer should only divert while the
// daemon is refusing work.
func TestHealthzReadinessFlipsUnderSustainedShed(t *testing.T) {
	const retryAfter = 80 * time.Millisecond
	w := newWedge()
	reg := obs.NewRegistry()
	guarded := newObsGuarded(t, w, reg, nil)
	srv := serve.New(guarded, serve.Config{
		LearnQueue: 1,
		RetryAfter: retryAfter,
		Obs:        reg,
		Resumed:    true,
	})
	defer srv.Close()
	defer close(w.release)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var h serve.HealthResponse
	if status := getJSON(t, ts.Client(), ts.URL+"/healthz", &h); status != http.StatusOK {
		t.Fatalf("fresh daemon /healthz status %d", status)
	}
	if h.Status != "ok" || !h.Resumed || h.LearnQueueCapacity != 1 {
		t.Fatalf("fresh daemon health = %+v", h)
	}

	// Saturate: the wedged admitter blocks the consumer on the first
	// submission, the second fills the queue, and further submissions
	// shed. shed keeps posting until a 503 proves a shed happened with
	// the queue still full, and returns when that request was sent —
	// no later than the daemon recorded the shed.
	g := testGen(t)
	rng := stats.NewRNG(3)
	req := func() serve.LearnRequest {
		return serve.LearnRequest{Message: wireMsg(g.Message(rng, true)), Spam: true}
	}
	deadline := time.Now().Add(5 * time.Second)
	shed := func() time.Time {
		for {
			sent := time.Now()
			if status := postJSON(t, ts.Client(), ts.URL+"/learn", req(), nil); status == http.StatusServiceUnavailable {
				return sent
			}
			if time.Now().After(deadline) {
				t.Fatal("learn path never shed")
			}
		}
	}

	// A /healthz answered within the recency window of the last shed
	// must report degraded. Under load the window can pass before the
	// GET is answered; then that GET proves nothing, so shed again and
	// retry until one lands inside it.
	for {
		sent := shed()
		status := getJSON(t, ts.Client(), ts.URL+"/healthz", &h)
		if time.Since(sent) <= 2*retryAfter {
			if status != http.StatusServiceUnavailable {
				t.Fatalf("saturated daemon /healthz status %d, want 503", status)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no /healthz answer landed within the recency window of a shed")
		}
	}
	if h.Status != "degraded" || h.Reason == "" || h.LearnShed == 0 {
		t.Fatalf("saturated daemon health = %+v", h)
	}

	// Scoring still works while learn is degraded — degraded means
	// score-only, not down.
	msg := g.Message(rng, false)
	if status := postJSON(t, ts.Client(), ts.URL+"/classify", serve.ClassifyRequest{Message: wireMsg(msg)}, nil); status != http.StatusOK {
		t.Fatalf("classify during degraded mode: status %d", status)
	}

	// Once the last shed ages past the recency window, readiness
	// recovers even though the wedged consumer still holds the queue
	// full: the daemon is no longer refusing anyone.
	time.Sleep(2*retryAfter + 50*time.Millisecond)
	if status := getJSON(t, ts.Client(), ts.URL+"/healthz", &h); status != http.StatusOK {
		t.Fatalf("post-shed /healthz status %d, want 200 (health = %+v)", status, h)
	}
	if h.Status != "ok" {
		t.Fatalf("post-shed health = %+v", h)
	}
}

// TestMetricsAndTraceAbsentWithoutConfig pins the opt-in contract:
// without a registry the daemon answers 404 on /metrics, without a
// tracer 404 on /trace, and pprof stays unmounted unless enabled.
func TestMetricsAndTraceAbsentWithoutConfig(t *testing.T) {
	guarded := newGuarded(t, "sbayes", acceptAll{}, engine.GuardedConfig{})
	srv := serve.New(guarded, serve.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, path := range []string{"/metrics", "/trace", "/debug/pprof/"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d without observability config, want 404", path, resp.StatusCode)
		}
	}
}

// getJSON fetches url and decodes the JSON body, returning the status.
func getJSON(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
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
