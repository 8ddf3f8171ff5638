package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ParsedMetrics is a decoded Prometheus text scrape: sample values
// keyed by canonical name+labels, plus the TYPE of each family. It is
// the read side of WriteText — the repo benchmark (benchmark/) scrapes
// /metrics before and after a run and reads the daemon's side of each
// layer from the histograms, and the race tests use it to assert the
// exposition stays parseable and internally consistent under load.
type ParsedMetrics struct {
	samples map[string]float64
	types   map[string]string
}

// ParseText decodes Prometheus text exposition format v0.0.4 (the
// subset WriteText emits, which is also the subset any conformant
// scraper accepts: HELP/TYPE comments, then name{labels} value
// samples). Unknown comment lines are skipped; malformed sample lines
// are errors — a scrape that half-parses is a scrape that silently
// lies.
func ParseText(r io.Reader) (*ParsedMetrics, error) {
	p := &ParsedMetrics{
		samples: make(map[string]float64),
		types:   make(map[string]string),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				p.types[fields[2]] = fields[3]
			}
			continue
		}
		name, labels, valueStr, err := splitSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", lineNo, err)
		}
		v, err := parseValue(valueStr)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: bad value %q: %w", lineNo, valueStr, err)
		}
		key := name + renderLabels(labels)
		if _, dup := p.samples[key]; dup {
			return nil, fmt.Errorf("obs: line %d: duplicate sample %s", lineNo, key)
		}
		p.samples[key] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

// splitSample breaks "name{k="v",...} value" (labels optional) into
// its parts.
func splitSample(line string) (name string, labels []Label, value string, err error) {
	brace := strings.IndexByte(line, '{')
	if brace < 0 {
		sp := strings.IndexAny(line, " \t")
		if sp < 0 {
			return "", nil, "", fmt.Errorf("sample without value: %q", line)
		}
		return line[:sp], nil, strings.TrimSpace(line[sp:]), nil
	}
	name = line[:brace]
	rest := line[brace+1:]
	labels, rest, err = parseLabels(rest)
	if err != nil {
		return "", nil, "", err
	}
	return name, labels, strings.TrimSpace(rest), nil
}

// parseLabels consumes `k="v",...}` and returns the labels plus the
// remainder after the closing brace.
func parseLabels(s string) ([]Label, string, error) {
	var labels []Label
	for {
		s = strings.TrimLeft(s, ", \t")
		if len(s) == 0 {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		if s[0] == '}' {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '=': %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		s = strings.TrimLeft(s[eq+1:], " \t")
		if len(s) == 0 || s[0] != '"' {
			return nil, "", fmt.Errorf("label %s: value not quoted", key)
		}
		s = s[1:]
		var val strings.Builder
		for {
			if len(s) == 0 {
				return nil, "", fmt.Errorf("label %s: unterminated value", key)
			}
			c := s[0]
			s = s[1:]
			if c == '"' {
				break
			}
			if c == '\\' {
				if len(s) == 0 {
					return nil, "", fmt.Errorf("label %s: dangling escape", key)
				}
				switch s[0] {
				case 'n':
					val.WriteByte('\n')
				case '\\', '"':
					val.WriteByte(s[0])
				default:
					return nil, "", fmt.Errorf("label %s: unknown escape \\%c", key, s[0])
				}
				s = s[1:]
				continue
			}
			val.WriteByte(c)
		}
		labels = append(labels, Label{Key: key, Value: val.String()})
	}
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(+1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// Value returns the sample for name+labels and whether it was present
// in the scrape.
func (p *ParsedMetrics) Value(name string, labels ...Label) (float64, bool) {
	v, ok := p.samples[name+renderLabels(labels)]
	return v, ok
}

// Type returns the exposed TYPE of a family ("" if the family had no
// TYPE line).
func (p *ParsedMetrics) Type(family string) string { return p.types[family] }

// Families returns the family names that carried a TYPE line, sorted.
func (p *ParsedMetrics) Families() []string {
	out := make([]string, 0, len(p.types))
	for name := range p.types {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of samples in the scrape.
func (p *ParsedMetrics) Len() int { return len(p.samples) }

// Histogram reassembles the histogram series for name+labels (labels
// exclude le) into a HistogramSnapshot, validating what the registry
// guarantees on the write side: cumulative bucket counts are monotone
// nondecreasing, the +Inf bucket equals _count, and _sum/_count are
// present. An error here means the scrape caught a malformed or torn
// exposition — exactly what the race test exists to rule out.
func (p *ParsedMetrics) Histogram(name string, labels ...Label) (HistogramSnapshot, error) {
	base := append([]Label(nil), labels...)

	type bucket struct {
		le  float64
		cum float64
	}
	var buckets []bucket
	prefix := name + "_bucket"
	for key, v := range p.samples {
		bname, blabels, ok := p.splitKey(key)
		if !ok || bname != prefix {
			continue
		}
		le, rest, ok := extractLE(blabels)
		if !ok || renderLabels(rest) != renderLabels(base) {
			continue
		}
		buckets = append(buckets, bucket{le: le, cum: v})
	}
	if len(buckets) == 0 {
		return HistogramSnapshot{}, fmt.Errorf("obs: no %s_bucket samples for labels %s", name, renderLabels(base))
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	if !math.IsInf(buckets[len(buckets)-1].le, +1) {
		return HistogramSnapshot{}, fmt.Errorf("obs: histogram %s missing +Inf bucket", name)
	}

	snap := HistogramSnapshot{
		Uppers: make([]float64, 0, len(buckets)-1),
		Counts: make([]uint64, 0, len(buckets)),
	}
	prev := -1.0
	for _, b := range buckets {
		if b.cum < prev {
			return HistogramSnapshot{}, fmt.Errorf("obs: histogram %s bucket le=%g not monotone (%g < %g)", name, b.le, b.cum, prev)
		}
		prev = b.cum
		if !math.IsInf(b.le, +1) {
			snap.Uppers = append(snap.Uppers, b.le)
		}
		snap.Counts = append(snap.Counts, uint64(b.cum))
	}
	snap.Count = snap.Counts[len(snap.Counts)-1]

	sum, ok := p.Value(name+"_sum", labels...)
	if !ok {
		return HistogramSnapshot{}, fmt.Errorf("obs: histogram %s missing _sum", name)
	}
	snap.Sum = sum
	count, ok := p.Value(name+"_count", labels...)
	if !ok {
		return HistogramSnapshot{}, fmt.Errorf("obs: histogram %s missing _count", name)
	}
	if uint64(count) != snap.Count {
		return HistogramSnapshot{}, fmt.Errorf("obs: histogram %s +Inf bucket %d != _count %d", name, snap.Count, uint64(count))
	}
	return snap, nil
}

// splitKey breaks a canonical sample key back into name + labels.
func (p *ParsedMetrics) splitKey(key string) (string, []Label, bool) {
	brace := strings.IndexByte(key, '{')
	if brace < 0 {
		return key, nil, true
	}
	labels, rest, err := parseLabels(key[brace+1:])
	if err != nil || rest != "" {
		return "", nil, false
	}
	return key[:brace], labels, true
}

// extractLE pulls the le label out of a bucket's label set.
func extractLE(labels []Label) (float64, []Label, bool) {
	for i, l := range labels {
		if l.Key != "le" {
			continue
		}
		le, err := parseValue(l.Value)
		if err != nil {
			return 0, nil, false
		}
		rest := append([]Label(nil), labels[:i]...)
		rest = append(rest, labels[i+1:]...)
		return le, rest, true
	}
	return 0, nil, false
}
