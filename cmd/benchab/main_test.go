package main

import "testing"

// TestJudge pins the verdict rules on fixed pairs: parent[i] and
// change[i] are pair i's two runs.
func TestJudge(t *testing.T) {
	throughput := metricSpec{Name: "throughput_per_s", Better: "higher", Bound: 0.25}
	latency := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.25}
	steady := []float64{100, 101, 99, 102, 98, 100, 103, 97, 100, 101}
	for _, c := range []struct {
		name           string
		m              metricSpec
		parent, change []float64
		want           string
	}{
		{"every pair won by far", throughput, steady,
			[]float64{150, 151, 149, 152, 148, 150, 153, 147, 150, 151}, "gain"},
		{"nine of ten won by far", throughput, steady,
			[]float64{150, 151, 149, 152, 148, 150, 153, 147, 150, 90}, "gain"},
		{"eight of ten won by far", throughput, steady,
			[]float64{150, 151, 149, 152, 148, 150, 153, 147, 90, 90}, "within bound"},
		// Every pair won, but the median gap (1) is inside the parent's
		// interquartile range (2.25).
		{"every pair won narrowly", throughput, steady,
			[]float64{101, 102, 100, 103, 99, 101, 104, 98, 101, 102}, "within bound"},
		{"the same", latency, steady, steady, "within bound"},
		{"worse inside the bound", latency, steady,
			[]float64{120, 121, 119, 122, 118, 120, 123, 117, 120, 121}, "within bound"},
		{"worse beyond the bound", latency, steady,
			[]float64{130, 131, 129, 132, 128, 130, 133, 127, 130, 131}, "worse"},
		{"lower throughput beyond the bound", throughput, steady,
			[]float64{70, 71, 69, 72, 68, 70, 73, 67, 70, 71}, "worse"},
		// The parent's quartiles (60.75–124.5) spread wider than the bound.
		{"parent too spread to tell", latency,
			[]float64{50, 130, 60, 125, 64, 120, 100, 140, 90, 110},
			[]float64{130, 100, 131, 100, 129, 140, 90, 130, 120, 80}, "unresolved"},
		// Every pair won, but the two sides' runs overlap.
		{"parent too spread, every pair won", throughput,
			[]float64{50, 130, 60, 125, 64, 120, 100, 140, 90, 110},
			[]float64{60, 140, 70, 135, 74, 130, 110, 150, 100, 120}, "unresolved"},
		// Every change run beats every parent run, but by less than the
		// parent's interquartile range (101–200).
		{"parent too spread, every change run better", latency,
			[]float64{100, 200, 101, 200, 102, 200, 100, 200, 101, 102},
			[]float64{99, 98, 99, 97, 99, 98, 99, 97, 99, 98}, "within bound"},
	} {
		wins := 0
		for i := range c.parent {
			if better(c.m.Better, c.change[i], c.parent[i]) {
				wins++
			}
		}
		if got := judge(summarize(c.parent), summarize(c.change), wins, len(c.parent), c.m); got != c.want {
			t.Errorf("%s: verdict %q, want %q (parent %+v, change %+v, %d wins)",
				c.name, got, c.want, summarize(c.parent), summarize(c.change), wins)
		}
	}
}

// TestQuartiles pins the interpolation between order statistics.
func TestQuartiles(t *testing.T) {
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s != (summary{lo: 1, q1: 3.25, median: 5.5, q3: 7.75, hi: 10}) {
		t.Fatalf("summary %+v, want 3.25/5.5/7.75", s)
	}
	if s := summarize([]float64{4}); s != (summary{4, 4, 4, 4, 4}) {
		t.Fatalf("one value: %+v", s)
	}
}
