// Package obs is the observability substrate: a stdlib-only metrics
// registry (atomic counters, scrape-time sampled gauges and counters,
// fixed-bucket histograms) with
// Prometheus text exposition, and a bounded decision-trace ring that
// replays per-message lifecycle decisions.
//
// The source paper's attacks are designed to be invisible in
// aggregate: a dictionary campaign raises ham loss a fraction of a
// percent per retrain, and a focused attack degrades exactly one
// victim's filter while fleet-wide accuracy holds. A one-shot JSON
// stats dump cannot show either. What an operator needs is per-stage,
// per-verdict time series (admission verdicts by reason, probe-budget
// level, quarantine depth, per-generation publish events) and
// per-message decision traces — why was this mail admitted, at which
// generation, after how many probes. This package supplies both
// primitives; engine, admission, and serve register into them.
//
// Design constraints, in order:
//
//   - The scoring hot path must not allocate: Counter.Add and
//     Histogram.Observe are single atomic operations on pre-built
//     instruments (instrument construction — the only allocating
//     step — happens once at registration).
//   - Scrapes never stop the world: instruments are read with atomic
//     loads; a scrape racing a batch sees a value at most one
//     in-flight update stale, the same consistency Stats() offers.
//   - No dependencies: the build image has no module proxy, so the
//     exposition writer and parser are hand-rolled against the
//     Prometheus text format v0.0.4 (the subset this registry emits:
//     HELP/TYPE comments, counters, gauges, histograms).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension, fixed at registration time. Every
// series this registry serves has a bounded, pre-declared label set —
// per-route, per-verdict, per-shard — never a per-request value, so
// cardinality cannot run away under attack traffic (an attacker who
// can mint new label values can OOM a registry; one who cannot, can
// only increment counters).
type Label struct {
	Key   string
	Value string
}

// L builds a Label. Registration sites read better with
// obs.L("route", "classify") than a struct literal.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotone counter. The zero value is ready to use (an
// unregistered counter — updates work, nothing scrapes it), so code
// paths can be instrumented unconditionally and wired to a registry
// only where one exists.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// DefLatencyBuckets is the default histogram layout for request and
// scoring latencies: exponential from 100µs to 10s, in seconds. The
// single-message classify path sits in the low milliseconds on the
// 1-CPU bench runner, so the interesting mass lands mid-range with
// headroom on both sides.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram: observation counts per
// bucket, a total count, and a sum, all maintained with lock-free
// atomics. Buckets are upper bounds in ascending order; observations
// above the last bound land in the implicit +Inf bucket. Observe is
// allocation-free, which is what lets the classify hot path carry a
// latency histogram where it used to carry a bare summed duration.
// There is deliberately no separate count field: the count is the sum
// of the bucket counts, so count and buckets cannot disagree and a
// snapshot is cumulative-monotone by construction.
type Histogram struct {
	upper   []float64
	buckets []atomic.Uint64 // len(upper)+1; last is +Inf
	sumBits atomic.Uint64   // float64 bits, CAS-updated
}

// newHistogram builds an unregistered histogram over the bucket
// bounds (nil selects DefLatencyBuckets). Bounds must be sorted
// strictly ascending.
func newHistogram(buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not ascending at %d: %v", i, buckets))
		}
	}
	upper := make([]float64, len(buckets))
	copy(upper, buckets)
	return &Histogram{upper: upper, buckets: make([]atomic.Uint64, len(upper)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Binary search beats linear from ~16 buckets up and is branch-cheap
	// below; sort.SearchFloat64s allocates nothing.
	i := sort.SearchFloat64s(h.upper, v)
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start — the one-line
// form latency call sites use.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations (the bucket sum).
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// SumDuration returns the sum interpreted as seconds — the cumulative
// latency the engine's Stats reports, now derived from the histogram
// instead of a separate summed counter.
func (h *Histogram) SumDuration() time.Duration {
	return time.Duration(h.Sum() * float64(time.Second))
}

// HistogramSnapshot is one consistent-enough read of a histogram:
// per-bucket cumulative counts (Counts[i] is observations ≤
// Uppers[i]; the final entry is the +Inf bucket and equals Count).
// Taken with atomic loads bucket by bucket, so a snapshot racing an
// Observe can run at most the in-flight observations behind — the
// same staleness contract as every Stats() read — while monotonicity
// of the cumulative counts holds by construction.
type HistogramSnapshot struct {
	Uppers []float64 // bucket upper bounds; +Inf implicit at the end
	Counts []uint64  // cumulative; len(Uppers)+1
	Count  uint64
	Sum    float64
}

// Snapshot reads the histogram. Count is the +Inf cumulative count —
// there is no separate tally to drift from it.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Uppers: h.upper,
		Counts: make([]uint64, len(h.buckets)),
		Sum:    h.Sum(),
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		s.Counts[i] = cum
	}
	s.Count = cum
	return s
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the snapshot by
// linear interpolation within the bucket the quantile falls in — the
// same estimator PromQL's histogram_quantile uses. A quantile landing
// in the +Inf bucket reports the last finite upper bound; an empty
// histogram reports 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Uppers) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	for i, cum := range s.Counts {
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Uppers) {
			return s.Uppers[len(s.Uppers)-1]
		}
		lower, prev := 0.0, uint64(0)
		if i > 0 {
			lower, prev = s.Uppers[i-1], s.Counts[i-1]
		}
		width := s.Uppers[i] - lower
		inBucket := float64(cum - prev)
		if inBucket == 0 {
			return s.Uppers[i]
		}
		return lower + width*(rank-float64(prev))/inBucket
	}
	return s.Uppers[len(s.Uppers)-1]
}

// Sub returns the snapshot of observations that happened after prev —
// the before/after delta a benchmark scrape uses to isolate one run's
// traffic. The snapshots must come from the same histogram layout.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) (HistogramSnapshot, error) {
	if len(s.Counts) != len(prev.Counts) || len(s.Uppers) != len(prev.Uppers) {
		return HistogramSnapshot{}, fmt.Errorf("obs: histogram layouts differ (%d/%d vs %d/%d buckets)",
			len(s.Uppers), len(s.Counts), len(prev.Uppers), len(prev.Counts))
	}
	out := HistogramSnapshot{
		Uppers: s.Uppers,
		Counts: make([]uint64, len(s.Counts)),
		Sum:    s.Sum - prev.Sum,
	}
	for i := range s.Counts {
		if s.Counts[i] < prev.Counts[i] {
			return HistogramSnapshot{}, fmt.Errorf("obs: bucket %d went backwards (%d < %d); not the same histogram", i, s.Counts[i], prev.Counts[i])
		}
		out.Counts[i] = s.Counts[i] - prev.Counts[i]
	}
	out.Count = out.Counts[len(out.Counts)-1]
	return out, nil
}

// kind is a metric family's exposition TYPE.
type kind uint8

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instrument inside a family. Exactly one of
// the value fields is set.
type series struct {
	labels   []Label
	labelStr string // pre-rendered {k="v",...} or ""

	counter   *Counter
	hist      *Histogram
	counterFn func() float64
	gaugeFn   func() float64
}

// family is every series sharing one metric name.
type family struct {
	name, help string
	kind       kind
	buckets    []float64 // histogram families: the shared layout
	series     map[string]*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. A nil *Registry is valid everywhere: instrument
// getters return working unregistered instruments and function
// registrations are dropped, so a layer can instrument itself
// unconditionally and let the deployment decide what is scraped.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// get returns the family and the series slot for name+labels,
// creating either as needed. Registering the same name under a
// different kind (or a histogram under a different bucket layout) is
// a programming error and panics — two call sites disagreeing about
// what a metric is must fail loudly, not fork the time series.
func (r *Registry) get(name, help string, k kind, buckets []float64, labels []Label) *series {
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: k, buckets: buckets, series: make(map[string]*series)}
		r.families[name] = fam
	}
	if fam.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, fam.kind, k))
	}
	if k == histogramKind && !sameBuckets(fam.buckets, buckets) {
		panic(fmt.Sprintf("obs: histogram %q registered with two bucket layouts", name))
	}
	ls := renderLabels(labels)
	s := fam.series[ls]
	if s == nil {
		s = &series{labels: append([]Label(nil), labels...), labelStr: ls}
		fam.series[ls] = s
	}
	return s
}

func sameBuckets(a, b []float64) bool {
	if a == nil {
		a = DefLatencyBuckets
	}
	if b == nil {
		b = DefLatencyBuckets
	}
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter returns the counter registered under name+labels, creating
// it on first use. On a nil registry it returns a fresh unregistered
// counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.get(name, help, counterKind, nil, labels)
	if s.counter == nil && s.counterFn == nil {
		s.counter = &Counter{}
	}
	if s.counter == nil {
		panic(fmt.Sprintf("obs: counter %q%s already registered as a function", name, renderLabels(labels)))
	}
	return s.counter
}

// Histogram returns the histogram registered under name+labels,
// creating it on first use with the bucket bounds (nil selects
// DefLatencyBuckets; every series of one family shares the layout).
// On a nil registry it returns a fresh unregistered histogram.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return newHistogram(buckets)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.get(name, help, histogramKind, buckets, labels)
	if s.hist == nil {
		s.hist = newHistogram(buckets)
	}
	return s.hist
}

// GaugeFunc registers a gauge sampled at scrape time — queue depths,
// buffer ages, budget levels, generations: values some other
// structure already maintains under its own synchronization, which is
// every gauge this system has. fn must be safe to call from any
// goroutine. No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.get(name, help, gaugeKind, nil, labels).gaugeFn = fn
}

// CounterFunc registers a counter sampled at scrape time, for
// monotone tallies another structure maintains under its own lock
// (probe counts, memo hits). fn must be monotone nondecreasing and
// safe from any goroutine. No-op on a nil registry.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.get(name, help, counterKind, nil, labels)
	if s.counter != nil {
		panic(fmt.Sprintf("obs: counter %q%s already registered as stored", name, renderLabels(labels)))
	}
	s.counterFn = fn
}

// WriteText renders the registry in Prometheus text exposition format
// v0.0.4: families sorted by name, one HELP/TYPE header each, series
// sorted by label string, histograms expanded into cumulative
// _bucket/_sum/_count samples. Safe to call concurrently with
// updates; the scrape sees each instrument at one atomic read.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			switch {
			case s.counter != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labelStr, formatValue(float64(s.counter.Value())))
			case s.counterFn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labelStr, formatValue(s.counterFn()))
			case s.gaugeFn != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labelStr, formatValue(s.gaugeFn()))
			case s.hist != nil:
				snap := s.hist.Snapshot()
				for i, cum := range snap.Counts {
					le := "+Inf"
					if i < len(snap.Uppers) {
						le = formatValue(snap.Uppers[i])
					}
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, withLE(s.labels, le), cum)
				}
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, s.labelStr, formatValue(snap.Sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, s.labelStr, snap.Count)
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// renderLabels renders a sorted {k="v",...} label string ("" for
// none). Sorting makes the label set canonical, so two registration
// sites listing the same labels in different orders share one series.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// withLE renders labels plus the histogram bucket's le label.
func withLE(labels []Label, le string) string {
	ls := append(append([]Label(nil), labels...), Label{Key: "le", Value: le})
	return renderLabels(ls)
}

// formatValue renders a sample value; integral values print without
// an exponent so counters read naturally.
func formatValue(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
