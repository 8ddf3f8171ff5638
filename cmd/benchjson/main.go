// Command benchjson converts `go test -bench` output into JSON so CI
// can archive one machine-readable perf artifact per run and the
// repository's benchmark trajectory accumulates across PRs.
//
// Usage:
//
//	go test -bench=. -benchmem -run='^$' . | benchjson -out BENCH.json
//
// Each benchmark result line becomes one record with its name (the
// trailing -GOMAXPROCS suffix split off), its package, iteration count,
// and every value/unit metric pair (ns/op, B/op, allocs/op, and any
// custom b.ReportMetric units). Context lines (goos, goarch, pkg, cpu)
// are captured into a context object; with several packages in the
// input, each record's pkg says which one it came from. When -out is set, the raw input is
// echoed to stdout so a piped CI step still shows the human-readable
// results in its log.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark's full name without the -GOMAXPROCS
	// suffix, e.g. "ShardedClassifyBatch/shards=4/workers=1".
	Name string `json:"name"`
	// Pkg is the package of the most recent "pkg:" line before it.
	Pkg string `json:"pkg,omitempty"`
	// Procs is the GOMAXPROCS suffix the line ran under (0 if absent).
	Procs int `json:"procs,omitempty"`
	// Iterations is the b.N the reported averages are over.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit to value: "ns/op", "B/op", "allocs/op", plus
	// any custom units reported with b.ReportMetric.
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the artifact written to -out.
type Report struct {
	// Context captures the goos/goarch/pkg/cpu header lines.
	Context map[string]string `json:"context,omitempty"`
	// Benchmarks holds every parsed result in input order.
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "write JSON to this file (default stdout); when set, input is echoed to stdout")
	flag.Parse()

	report := Report{Context: map[string]string{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	echo := *out != ""
	for sc.Scan() {
		line := sc.Text()
		if echo {
			fmt.Println(line)
		}
		if name, value, ok := strings.Cut(line, ": "); ok && report.Context != nil {
			switch name {
			case "goos", "goarch", "pkg", "cpu":
				report.Context[name] = value
				continue
			}
		}
		if res, ok := parseLine(line); ok {
			res.Pkg = report.Context["pkg"]
			report.Benchmarks = append(report.Benchmarks, res)
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(report.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(report.Benchmarks), *out)
}

// parseLine parses one "BenchmarkX-8  N  v unit  v unit ..." line.
// Lines that do not look like benchmark results report ok = false.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	procs := 0
	if i := strings.LastIndexByte(name, '-'); i >= 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			procs = p
			name = name[:i]
		}
	}
	iterations, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: name, Procs: procs, Iterations: iterations, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		value, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		res.Metrics[fields[i+1]] = value
	}
	return res, true
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
	os.Exit(1)
}
