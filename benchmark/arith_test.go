package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

func TestPercentileNearestRankAndBeyondRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000, sorted
	}
	for _, c := range []struct {
		p      float64
		want   float64
		enough bool
	}{
		{0.50, 500, true},
		{0.90, 900, true},
		{0.99, 990, true},   // exactly 10 samples beyond rank 990
		{0.991, 991, false}, // 9 beyond: not a measurement
		{1, 1000, false},
	} {
		got, ok := percentile(xs, c.p)
		if got != c.want || ok != c.enough {
			t.Errorf("percentile(1..1000, %v) = %v, %v; want %v, %v", c.p, got, ok, c.want, c.enough)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported enough samples")
	}
	// 11 samples: the median has 5 beyond it, so even p50 is refused.
	if v, ok := percentile(xs[:11], 0.5); v != 6 || ok {
		t.Errorf("percentile(1..11, 0.5) = %v, %v; want 6, false", v, ok)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestOpenLoopLatencyCountsStallsNotLoaderLateness(t *testing.T) {
	ms := time.Millisecond
	// Request 0 is due at 0 and takes 7ms. Request 1, due at 2ms, cannot
	// go out before request 0 returns at 7ms: its 5ms wait is the
	// daemon's doing and counts. Request 2, due at 10ms on an idle
	// connection, is sent 3ms late by the loader itself: that delay is
	// lateness, not latency.
	recs := []record{
		{Due: 0, Ready: 0, Start: 0, End: 7 * ms},
		{Due: 2 * ms, Ready: 7 * ms, Start: 7 * ms, End: 8 * ms},
		{Due: 10 * ms, Ready: 10 * ms, Start: 13 * ms, End: 14 * ms},
	}
	for i, want := range []struct{ lat, late time.Duration }{
		{7 * ms, 0},
		{6 * ms, 0},
		{1 * ms, 3 * ms},
	} {
		if got := recs[i].latency(); got != want.lat {
			t.Errorf("rec %d latency = %v, want %v", i, got, want.lat)
		}
		if got := recs[i].late(); got != want.late {
			t.Errorf("rec %d late = %v, want %v", i, got, want.late)
		}
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command field may hold spaces and parentheses; utime and
	// stime are fields 14 and 15 counted from the start of the line.
	line := []byte("4242 (sb (served) x) S 1 4242 4242 0 -1 4194560 812 0 0 0 153 47 0 0 20 0 9 0 123456 1234567 890 18446744073709551615\n")
	got, err := parseStatCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := 200 * clockTick; got != want {
		t.Errorf("parseStatCPU = %v, want %v", got, want)
	}
	if _, err := parseStatCPU([]byte("4242 (x) S 1 2")); err == nil {
		t.Error("short stat line parsed")
	}
}

func TestCPUDeltaPerMessage(t *testing.T) {
	before, _ := parseStatCPU([]byte("1 (d) S 0 0 0 0 0 0 0 0 0 0 100 50 0 0"))
	after, _ := parseStatCPU([]byte("1 (d) S 0 0 0 0 0 0 0 0 0 0 130 60 0 0"))
	// 40 ticks of 10ms over 1000 messages: 400µs each.
	if got := perMsgUs(after-before, 1000); got != 400 {
		t.Errorf("perMsgUs = %v, want 400", got)
	}
	if got := perMsgUs(time.Second, 0); got != 0 {
		t.Errorf("perMsgUs with no messages = %v, want 0", got)
	}
}

func TestParseStatSteal(t *testing.T) {
	total, steal, err := parseStatSteal([]byte("cpu  100 0 20 800 5 0 3 72 0 0\ncpu0 50 0 10 400 2 0 1 36 0 0\n"))
	if err != nil || total != 1000 || steal != 72 {
		t.Errorf("parseStatSteal = %d, %d, %v; want 1000, 72", total, steal, err)
	}
	if _, _, err := parseStatSteal([]byte("intr 1 2 3\n")); err == nil {
		t.Error("non-cpu line parsed")
	}
}

func TestParseStatusKB(t *testing.T) {
	status := []byte("Name:\tsbserved\nVmPeak:\t  900 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n")
	if kb, err := parseStatusKB(status, "VmHWM"); err != nil || kb != 20480 {
		t.Errorf("VmHWM = %v, %v", kb, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing key parsed")
	}
}

func TestMetricsDeltas(t *testing.T) {
	reg := obs.NewRegistry()
	rl := obs.L("route", "classify")
	h := reg.Histogram("serve_request_seconds", "latency", nil, rl)
	c := reg.Counter("serve_publishes_total", "publishes")
	scrape := func() *obs.ParsedMetrics {
		var b bytes.Buffer
		if err := reg.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		pm, err := obs.ParseText(&b)
		if err != nil {
			t.Fatal(err)
		}
		return pm
	}
	h.Observe(0.5) // before the phase: must not count
	c.Add(3)
	before := scrape()
	h.Observe(0.00002) // below the first bucket: only sum/count are exact
	h.Observe(0.00004)
	c.Add(2)
	d := delta{before, scrape()}
	if n, s := d.hist("serve_request_seconds", rl); n != 2 || s < 0.0000599 || s > 0.0000601 {
		t.Errorf("hist delta = %v, %v; want 2, 6e-5", n, s)
	}
	if m := d.histMean("serve_request_seconds", rl); m < 0.0000299 || m > 0.0000301 {
		t.Errorf("histMean = %v, want 3e-5", m)
	}
	if v := d.value("serve_publishes_total"); v != 2 {
		t.Errorf("counter delta = %v, want 2", v)
	}
	if m := d.histMean("serve_request_seconds", obs.L("route", "learn")); m != 0 {
		t.Errorf("histMean of an absent series = %v, want 0", m)
	}
}

func TestParseGCTrace(t *testing.T) {
	ev, ok := parseGCTrace("gc 7 @0.512s 3%: 0.030+1.1+0.021 ms clock, 0.060+0.2/0.9/0+0.043 ms cpu, 4->4->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P")
	if !ok || ev.pause != 51*time.Microsecond {
		t.Errorf("parseGCTrace = %v, %v; want 51µs pause", ev.pause, ok)
	}
	for _, line := range []string{"2026/10/16 quarantine review: 3 released", "gc 1 @0.1s 1%: bad", "gc 1 @0.1s 1%: 1+2 ms clock"} {
		if _, ok := parseGCTrace(line); ok {
			t.Errorf("parseGCTrace(%q) accepted", line)
		}
	}
}

func TestConnReadsLengthAndChunkedBodies(t *testing.T) {
	big := strings.Repeat("x", 10000) // past net/http's buffer: sent chunked
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/small":
			w.Write([]byte("ok\n"))
		case "/big":
			w.Write([]byte(big))
		case "/close":
			w.Header().Set("Connection", "close")
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	}))
	defer srv.Close()
	c := newConn(srv.URL)
	defer c.Close()
	for i := 0; i < 3; i++ { // the connection is reused across requests
		for _, tc := range []struct {
			path   string
			status int
			body   string
		}{{"/small", 200, "ok\n"}, {"/big", 200, big}, {"/close", 503, ""}} {
			status, body, err := c.post(tc.path, "text/plain", []byte("payload"))
			if err != nil || status != tc.status || string(body) != tc.body {
				t.Fatalf("POST %s = %d, %d bytes, %v", tc.path, status, len(body), err)
			}
		}
	}
}

func TestHoldoutMiss(t *testing.T) {
	vs := []serve.ClassifyResponse{{Label: "ham"}, {Label: "spam"}, {Label: "unsure"}, {Label: "ham"}}
	if got := holdoutMiss(vs); got != 0.5 {
		t.Errorf("holdoutMiss = %v, want 0.5 (spam and unsure both miss)", got)
	}
}

// TestMetricNamesMatchBenchmarkJSON pins the metrics a run prints to
// the lists in BENCHMARK.json, for every workload.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found beside the benchmark")
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	empty, err := obs.ParseText(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	var recs []record
	for i := 0; i < 200; i++ {
		at := time.Duration(i) * time.Millisecond
		recs = append(recs, record{Due: at, Ready: at, Start: at, End: at + time.Millisecond, Status: 200})
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		p := &phase{before: scrape{m: empty}, after: scrape{m: empty}, elapsed: time.Second, classify: recs, batches: recs,
			setups: []time.Duration{time.Second}, learn: learnResult{recs: recs, last: time.Second}}
		o := options{workload: w.Name}
		in := &inputs{}
		e2e, err := endToEnd(o, p)
		if err != nil {
			t.Fatal(err)
		}
		same(t, w.Name+" end_to_end", e2e, spec.EndToEnd)
		pl, _ := perLayer(o, in, p, p, newReplay(), layerRun{})
		same(t, w.Name+" per_layer", pl, spec.PerLayer)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
}

func same(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: run prints %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: %s listed but not printed", what, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: %s printed in %s, listed in %s", what, m.Name, g.Unit, m.Unit)
		}
	}
}
