package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail percentile resting on fewer is noise, not a measurement.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of the
// ascending samples — the value at 1-based rank ceil(p·n) — and
// whether at least minBeyond samples lie above that rank.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	// The epsilon keeps p·n that is integral in exact arithmetic (0.99
	// of 1000) from rounding up a rank in floating point.
	k := int(math.Ceil(p*float64(n) - 1e-9))
	k = min(max(k, 1), n)
	return sorted[k-1], n-k >= minBeyond
}

// sortedMs returns the durations in milliseconds, ascending.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of unsorted values.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perMsgUs is a CPU-time delta spread over the messages handled, in
// microseconds per message.
func perMsgUs(cpu time.Duration, msgs int) float64 {
	if msgs == 0 {
		return 0
	}
	return us(cpu) / float64(msgs)
}

// scrape is one GET /metrics: the parsed exposition, its size, and how
// long the daemon took to serve it.
type scrape struct {
	m     *obs.ParsedMetrics
	bytes int
	dur   time.Duration
}

func scrapeMetrics(c *conn) (scrape, error) {
	start := time.Now()
	status, body, err := c.do("GET", "/metrics", "", nil)
	dur := time.Since(start)
	if err != nil {
		return scrape{}, fmt.Errorf("scrape /metrics: %w", err)
	}
	if status != 200 {
		return scrape{}, fmt.Errorf("scrape /metrics: status %d", status)
	}
	pm, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		return scrape{}, fmt.Errorf("scrape /metrics: %w", err)
	}
	return scrape{m: pm, bytes: len(body), dur: dur}, nil
}

// delta is the change of the daemon's instruments across a phase.
type delta struct{ before, after *obs.ParsedMetrics }

// value is the change of one counter or gauge sample; a series absent
// from a scrape reads as 0 there.
func (d delta) value(name string, labels ...obs.Label) float64 {
	a, _ := d.after.Value(name, labels...)
	b, _ := d.before.Value(name, labels...)
	return a - b
}

// hist returns how many observations a histogram gained and their
// summed value. The _sum/_count pair gives an exact mean, which the
// default buckets (from 100µs up) cannot for sub-bucket latencies.
func (d delta) hist(name string, labels ...obs.Label) (count, sum float64) {
	return d.value(name+"_count", labels...), d.value(name+"_sum", labels...)
}

// histMean is the mean of a histogram's observations across the phase,
// 0 when it gained none.
func (d delta) histMean(name string, labels ...obs.Label) float64 {
	n, s := d.hist(name, labels...)
	if n == 0 {
		return 0
	}
	return s / n
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
