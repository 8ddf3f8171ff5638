// Command benchmark is the repository's end-to-end benchmark. It
// launches the stock cmd/sbserved daemon at its shipped defaults,
// drives it over loopback from this one loader process with traffic
// generated from --seed, checks every answer, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics and an
// attribution table per workload (--trace 1). The last line of
// standard output is the result as one JSON object.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash benchmark/run.sh --workload deliver --seed 1 --seconds 15 --trace 0
//
// Workloads, metrics and the layer each metric belongs to are
// described in benchmark/README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	_ "repro/internal/sbayes"
)

// loaderProcs caps the loader's GOMAXPROCS: the loader shares the host
// with the daemon it measures and must not take more than it needs.
const loaderProcs = 2

// buildDir holds everything a run writes: run.sh builds the loader and
// sbserved into it, and daemon snapshots and traces go there too.
const buildDir = ".bench_build"

// setupLaunches is how many daemons a --trace 0 run launches to time
// set-up; the reported set-up time is their median, and the last one
// serves the timed phase.
const setupLaunches = 7

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	daemonBin string
	workDir   string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed sends the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run, printing per-layer metrics and the attribution table")
	flag.Parse()
	o.trace = trace == 1
	o.daemonBin, o.workDir = filepath.Join(buildDir, "sbserved"), buildDir
	if runtime.GOMAXPROCS(0) > loaderProcs {
		runtime.GOMAXPROCS(loaderProcs)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

var workloadNames = []string{"deliver", "bulk_score", "feedback_under_attack"}

func run(o options) (result, error) {
	known := false
	for _, w := range workloadNames {
		known = known || w == o.workload
	}
	if !known {
		return result{}, fmt.Errorf("unknown --workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if o.seconds < 1 {
		return result{}, fmt.Errorf("--seconds %d: want at least 1", o.seconds)
	}
	if _, err := os.Stat(o.daemonBin); err != nil {
		return result{}, fmt.Errorf("daemon binary: %w (run through benchmark/run.sh, which builds it)", err)
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return result{}, err
	}
	gen := newGenerator()
	in, err := buildInputs(gen, o.workload, o.seed, o.seconds)
	if err != nil {
		return result{}, err
	}
	runtime.GC()

	if !o.trace {
		p, err := runPhase(o, in, false, setupLaunches)
		if err != nil {
			return result{}, err
		}
		printHost(o, p)
		c, err := check(o, in, p, newReplay())
		if err != nil {
			return result{}, err
		}
		m, err := endToEnd(o, p)
		if err != nil {
			return result{}, err
		}
		printMetrics(m)
		return c.result(m), nil
	}

	// Traced run: an untraced reference phase, then the traced phase
	// the per-layer numbers come from, each on a fresh daemon.
	base, err := runPhase(o, in, false, 1)
	if err != nil {
		return result{}, err
	}
	tr, err := runPhase(o, in, true, 1)
	if err != nil {
		return result{}, err
	}
	printHost(o, tr)
	c, err := check(o, in, base, newReplay())
	if err != nil {
		return result{}, err
	}
	rp := newReplay()
	ct, err := check(o, in, tr, rp)
	if err != nil {
		return result{}, err
	}
	c.merge(ct)
	lr, err := replayLayers(o, gen, in, tr, rp)
	if err != nil {
		return result{}, err
	}
	m, table := perLayer(o, in, base, tr, rp, lr)
	printMetrics(m)
	fmt.Print(table)
	if err := writeTrace(o, tr, rp); err != nil {
		return result{}, err
	}
	return c.result(m), nil
}

// hostRecord says where a result was measured: no one should mistake a
// 2-core number for a scaling result.
type hostRecord struct {
	Workload     string   `json:"workload"`
	Seconds      int      `json:"seconds"`
	Traced       bool     `json:"traced"`
	WorkloadSeed uint64   `json:"workload_seed"`
	DaemonSeed   uint64   `json:"daemon_seed"`
	NProc        int      `json:"nproc"`
	LoaderProcs  int      `json:"loader_gomaxprocs"`
	DaemonProcs  int      `json:"daemon_gomaxprocs"`
	CPUModel     string   `json:"cpu_model"`
	GoVersion    string   `json:"go_version"`
	DaemonFlags  []string `json:"daemon_flags"`
	StealPct     float64  `json:"cpu_steal_pct"`
}

func host(o options, p *phase) hostRecord {
	return hostRecord{
		Workload: o.workload, Seconds: o.seconds, Traced: o.trace,
		WorkloadSeed: o.seed, DaemonSeed: daemonSeed,
		NProc:       runtime.NumCPU(),
		LoaderProcs: runtime.GOMAXPROCS(0),
		// The daemon runs with GOMAXPROCS unset (daemonEnv strips it),
		// so the runtime default applies: the CPUs it may run on.
		DaemonProcs: runtime.NumCPU(),
		CPUModel:    cpuModel(),
		GoVersion:   runtime.Version(),
		DaemonFlags: p.args,
		StealPct:    p.stealPct,
	}
}

func printHost(o options, p *phase) {
	b, _ := json.Marshal(host(o, p))
	fmt.Printf("host %s\n", b)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printMetrics(m map[string]metric) {
	for _, name := range sortedKeys(m) {
		fmt.Printf("%-40s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

// writeTrace writes the traced run's spans — the loader's request
// spans, then the replay's layer spans — as NDJSON under the work
// directory.
func writeTrace(o options, p *phase, rp *replay) error {
	path := fmt.Sprintf("%s/trace-%s-seed%d.ndjson", o.workDir, o.workload, o.seed)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(host(o, p))
	for _, recs := range [][]record{p.classify, p.batches, p.learn.recs} {
		for i := 0; i < len(recs) && err == nil; i++ {
			err = enc.Encode(recs[i])
		}
	}
	for i := 0; i < len(rp.spans) && err == nil; i++ {
		err = enc.Encode(rp.spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("trace written to %s\n", path)
	return nil
}
