package obs

import (
	"bytes"
	"testing"
)

// FuzzParseText: ParseText never panics on arbitrary bytes, and a
// registry's own WriteText output parses back to the registered
// values whatever the label values hold — quotes, backslashes,
// newlines, braces, commas or bytes that are not UTF-8.
func FuzzParseText(f *testing.F) {
	reg := NewRegistry()
	reg.Counter("seed_total", "a counter", L("route", "classify")).Add(3)
	reg.Histogram("seed_seconds", "a\nhistogram", nil, L("route", `q"u\o`)).Observe(0.25)
	var scrape bytes.Buffer
	if err := reg.WriteText(&scrape); err != nil {
		f.Fatal(err)
	}
	f.Add(scrape.Bytes(), "classify")
	f.Add([]byte("# TYPE x counter\nx{a=\"b\\\\\\\"\\n\"} +Inf\nx_sum NaN\n"), `a"b\c`)
	f.Add([]byte("x{a=\"unterminated} 1\ny{} 2\nz 1e308\n{} 1\n"), "}{,=\n")
	f.Fuzz(func(t *testing.T, text []byte, value string) {
		ParseText(bytes.NewReader(text))

		reg := NewRegistry()
		reg.Counter("fuzz_total", "counter", L("v", value)).Add(7)
		reg.GaugeFunc("fuzz_gauge", "gauge", func() float64 { return -1.5 }, L("v", value), L("k", value+"2"))
		h := reg.Histogram("fuzz_seconds", "histogram", []float64{0.1, 1}, L("v", value))
		h.Observe(0.25)
		h.Observe(4)
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		p, err := ParseText(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("WriteText output does not parse: %v\n%s", err, buf.String())
		}
		if v, ok := p.Value("fuzz_total", L("v", value)); !ok || v != 7 {
			t.Fatalf("counter = %v, %v; want 7\n%s", v, ok, buf.String())
		}
		if v, ok := p.Value("fuzz_gauge", L("k", value+"2"), L("v", value)); !ok || v != -1.5 {
			t.Fatalf("gauge = %v, %v; want -1.5\n%s", v, ok, buf.String())
		}
		snap, err := p.Histogram("fuzz_seconds", L("v", value))
		if err != nil {
			t.Fatalf("histogram: %v\n%s", err, buf.String())
		}
		if snap.Count != 2 || snap.Sum != 4.25 || len(snap.Counts) != 3 || snap.Counts[0] != 0 || snap.Counts[1] != 1 {
			t.Fatalf("histogram = %+v, want 2 observations summing to 4.25\n%s", snap, buf.String())
		}
		if p.Type("fuzz_total") != "counter" || p.Type("fuzz_gauge") != "gauge" || p.Type("fuzz_seconds") != "histogram" {
			t.Fatalf("families typed %v", p.Families())
		}
	})
}
