package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestHistogramBucketsAndSnapshot(t *testing.T) {
	h := newHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); math.Abs(got-56.05) > 1e-9 {
		t.Fatalf("sum = %g, want 56.05", got)
	}
	snap := h.Snapshot()
	wantCum := []uint64{1, 3, 4, 5}
	for i, w := range wantCum {
		if snap.Counts[i] != w {
			t.Fatalf("cumulative[%d] = %d, want %d (all %v)", i, snap.Counts[i], w, snap.Counts)
		}
	}
	if snap.Count != 5 {
		t.Fatalf("snapshot count = %d, want 5", snap.Count)
	}
	// Boundary values land in their own bucket (SearchFloat64s returns
	// the index of the first bound >= v, i.e. le semantics).
	h2 := newHistogram([]float64{1, 2})
	h2.Observe(1)
	if s := h2.Snapshot(); s.Counts[0] != 1 {
		t.Fatalf("observation at bound landed in bucket %v, want le=1", s.Counts)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 3, 4})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%4) + 0.5) // 25 each in (0,1], (1,2], (2,3], (3,4]
	}
	snap := h.Snapshot()
	if q := snap.Quantile(0.5); math.Abs(q-2) > 1e-9 {
		t.Fatalf("p50 = %g, want 2", q)
	}
	if q := snap.Quantile(0.25); math.Abs(q-1) > 1e-9 {
		t.Fatalf("p25 = %g, want 1", q)
	}
	if q := snap.Quantile(1); math.Abs(q-4) > 1e-9 {
		t.Fatalf("p100 = %g, want 4", q)
	}
	// Mass in +Inf reports the last finite bound rather than inventing
	// a value beyond it.
	h2 := newHistogram([]float64{1})
	h2.Observe(100)
	if q := h2.Snapshot().Quantile(0.99); q != 1 {
		t.Fatalf("+Inf quantile = %g, want last finite bound 1", q)
	}
	var empty HistogramSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %g, want 0", q)
	}
}

func TestHistogramSub(t *testing.T) {
	h := newHistogram([]float64{1, 10})
	h.Observe(0.5)
	before := h.Snapshot()
	h.Observe(5)
	h.Observe(5)
	after := h.Snapshot()
	delta, err := after.Sub(before)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Count != 2 {
		t.Fatalf("delta count = %d, want 2", delta.Count)
	}
	if math.Abs(delta.Sum-10) > 1e-9 {
		t.Fatalf("delta sum = %g, want 10", delta.Sum)
	}
	if _, err := before.Sub(after); err == nil {
		t.Fatal("backwards Sub succeeded; want error")
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total", "requests", L("route", "classify")).Add(7)
	r.Counter("req_total", "requests", L("route", "learn")).Add(3)
	r.GaugeFunc("queue_depth", "depth", func() float64 { return 12 })
	r.GaugeFunc("budget", "probe budget", func() float64 { return 0.75 })
	r.CounterFunc("probes_total", "probes", func() float64 { return 42 })
	h := r.Histogram("latency_seconds", "latency", []float64{0.01, 0.1, 1}, L("route", "classify"))
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE req_total counter",
		`req_total{route="classify"} 7`,
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="+Inf",route="classify"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	p, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse back: %v\n%s", err, text)
	}
	if v, ok := p.Value("req_total", L("route", "classify")); !ok || v != 7 {
		t.Fatalf("req_total{classify} = %v,%v", v, ok)
	}
	if v, ok := p.Value("queue_depth"); !ok || v != 12 {
		t.Fatalf("queue_depth = %v,%v", v, ok)
	}
	if v, ok := p.Value("budget"); !ok || v != 0.75 {
		t.Fatalf("budget = %v,%v", v, ok)
	}
	if v, ok := p.Value("probes_total"); !ok || v != 42 {
		t.Fatalf("probes_total = %v,%v", v, ok)
	}
	if got := p.Type("latency_seconds"); got != "histogram" {
		t.Fatalf("type = %q, want histogram", got)
	}
	snap, err := p.Histogram("latency_seconds", L("route", "classify"))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Count != 3 {
		t.Fatalf("parsed count = %d, want 3", snap.Count)
	}
	if got := h.Snapshot(); got.Counts[0] != snap.Counts[0] || got.Counts[1] != snap.Counts[1] {
		t.Fatalf("parsed counts %v != live %v", snap.Counts, got.Counts)
	}
}

func TestRegistryLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", L("a", "1"), L("b", "2"))
	b := r.Counter("x_total", "", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("same labels in different order created two series")
	}
}

func TestRegistryLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", L("why", "a\"b\\c\nd")).Inc()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	p, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, sb.String())
	}
	if v, ok := p.Value("esc_total", L("why", "a\"b\\c\nd")); !ok || v != 1 {
		t.Fatalf("escaped label lost: %v,%v in\n%s", v, ok, sb.String())
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering counter name as gauge did not panic")
		}
	}()
	r.GaugeFunc("m", "", func() float64 { return 0 })
}

func TestNilRegistryAndTracerAreSafe(t *testing.T) {
	var r *Registry
	r.Counter("a", "").Inc()
	r.Histogram("c", "", nil).Observe(1)
	r.GaugeFunc("d", "", func() float64 { return 0 })
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}

	var tr *Tracer
	if tr.Sampled(0) {
		t.Fatal("nil tracer sampled")
	}
	tr.Record(TraceEvent{})
	if got := tr.Last(10); got != nil {
		t.Fatalf("nil tracer Last = %v", got)
	}
	if tr.Recorded() != 0 || tr.SampleEvery() != 0 {
		t.Fatal("nil tracer reported activity")
	}
}

func TestTracerRingAndSampling(t *testing.T) {
	tr := NewTracer(4, 8)
	if !tr.Sampled(16) || tr.Sampled(17) {
		t.Fatal("sampling is not digest mod every")
	}
	for i := 0; i < 10; i++ {
		tr.Record(TraceEvent{Kind: TraceClassify, Digest: uint64(i), Shard: -1})
	}
	got := tr.Last(0)
	if len(got) != 4 {
		t.Fatalf("ring holds %d, want 4", len(got))
	}
	// Oldest first, and the ring kept the last four records.
	for i, e := range got {
		if e.Digest != uint64(6+i) {
			t.Fatalf("event %d digest = %d, want %d (%v)", i, e.Digest, 6+i, got)
		}
		if i > 0 && (e.Seq <= got[i-1].Seq || e.At < got[i-1].At) {
			t.Fatalf("events out of order: %+v then %+v", got[i-1], e)
		}
	}
	if tr.Recorded() != 10 {
		t.Fatalf("recorded = %d, want 10", tr.Recorded())
	}
	if last := tr.Last(2); len(last) != 2 || last[1].Digest != 9 {
		t.Fatalf("Last(2) = %v", last)
	}
}

func TestTraceEventJSONRoundTrip(t *testing.T) {
	e := TraceEvent{Seq: 3, At: 99, Kind: TraceAdmit, Digest: 7, Generation: 2,
		Shard: 1, Verdict: "quarantine", Reason: "roni: probe budget exhausted"}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"kind":"admit"`) {
		t.Fatalf("kind not symbolic: %s", b)
	}
	var back TraceEvent
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != e {
		t.Fatalf("round trip %+v != %+v", back, e)
	}
	var bad TraceEvent
	if err := json.Unmarshal([]byte(`{"kind":"nonsense"}`), &bad); err == nil {
		t.Fatal("unknown kind decoded")
	}
}

// TestConcurrentScrapeConsistency hammers every instrument type from
// writer goroutines while scraping, parsing, and validating histogram
// monotonicity from readers. Run under -race this is the registry's
// core safety claim: scrapes never tear and never block updates.
func TestConcurrentScrapeConsistency(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(64, 2)
	c := r.Counter("ops_total", "")
	var level atomic.Int64
	r.GaugeFunc("level", "", func() float64 { return float64(level.Load()) })
	h := r.Histogram("lat", "", []float64{0.001, 0.01, 0.1})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				level.Store(int64(i))
				h.Observe(float64(i%100) / 500)
				if d := uint64(i); tr.Sampled(d) {
					tr.Record(TraceEvent{Kind: TraceClassify, Digest: d, Shard: int32(w)})
				}
			}
		}(w)
	}

	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		p, err := ParseText(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("scrape failed to parse: %v\n%s", err, sb.String())
		}
		// Histogram() revalidates monotone cumulative buckets and
		// +Inf == _count on every scrape.
		if _, err := p.Histogram("lat"); err != nil {
			t.Fatal(err)
		}
		if events := tr.Last(16); len(events) > 1 {
			for i := 1; i < len(events); i++ {
				if events[i].Seq != events[i-1].Seq+1 {
					t.Fatalf("trace seq gap: %d then %d", events[i-1].Seq, events[i].Seq)
				}
			}
		}
	}
	close(stop)
	wg.Wait()

	// Quiesced: the +Inf cumulative count must equal the counter of a
	// paired writer loop (each iteration did exactly one Inc and one
	// Observe).
	snap := h.Snapshot()
	if snap.Count != c.Value() {
		t.Fatalf("histogram count %d != ops counter %d after quiesce", snap.Count, c.Value())
	}
}

func TestInstrumentsAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total", "")
	h := r.Histogram("c", "", nil)
	tr := NewTracer(16, 1)
	ev := TraceEvent{Kind: TraceLearn, Digest: 1}
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		h.Observe(0.01)
		tr.Record(ev)
	}); n != 0 {
		t.Fatalf("instrument updates allocate %v/op, want 0", n)
	}
}
